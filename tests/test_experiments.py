"""End-to-end runs, batch determinism, aggregation math, and sweep assembly."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from locatesim import experiments, world
from locatesim.experiments import (PROTOCOLS, THREADS_ENV, RunResult, ScenarioConfig,
                                   aggregate, run_batch, run_batches, run_once, sweep,
                                   sweep_points, worker_count)
from locatesim.kernel import FREEZE_POLL, LEG_END, EventQueue
from locatesim.protocol import (DTN_ACTIVE, DTN_FROZEN, E_REP, E_REQ, SOLVED, LocateBehavior,
                               ProtocolParams)
from locatesim.radio import INTERFERENCE_COLLISION, SMOOTH, lora_profile
from locatesim.world import Role, World
import reference
import test_acceptance as gate
from paired import dtn_optimization
from topologies import line_world, pair_world, static_world, walking


def small(**kw):
    base = dict(n=10, tau=0.2, side_m=2500.0, runs=4, base_seed=5, horizon_s=1500.0)
    base.update(kw)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(protocol="gossip")
    with pytest.raises(ValueError):
        ScenarioConfig(n=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(tau=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(runs=0)
    with pytest.raises(ValueError):
        ScenarioConfig(horizon_s=0.0)
    with pytest.raises(ValueError, match="seed -1 must be non-negative"):
        ScenarioConfig(base_seed=-1)  # random.Random(-1) is random.Random(1)
    for field in ("horizon_s", "side_m"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                ScenarioConfig(**{field: bad})
    for side in (0.0, 0.999, 1e-20):  # legs shorter than the clock resolves would never end
        with pytest.raises(ValueError, match="arena side"):
            ScenarioConfig(side_m=side)
    # a beacon window below the clock's resolution: the source's timer would refire forever
    with pytest.raises(ValueError, match="contention windows"):
        ScenarioConfig(n=0, tau=0.0, horizon_s=10.0,
                       params=ProtocolParams(cw_min_s=0.0, cw_max_s=1e-300))


def test_static_solver_pair_resolves_within_one_window():
    # a lone solver 300 m out answers inside one contention window plus airtimes
    for idx in range(6):
        res = run_once(small(n=1, tau=1.0, runs=1), idx, world=pair_world(300.0))
        assert res.solved
        assert res.ert_s <= 20.8
        assert res.erep_count >= 1
        assert res.end_time_s >= res.ert_s


def test_source_alone_beacons_until_horizon():
    res = run_once(small(n=0, tau=0.0, horizon_s=100.0), 0,
                   world=static_world(2500.0, [(1250.0, 1250.0)]))
    assert not res.solved
    assert res.ert_s is None
    assert res.end_time_s == 100.0
    assert res.ereq_count >= 5  # beacons keep going unanswered
    assert res.erep_count == 0


def test_run_once_is_seed_deterministic():
    a = run_once(small(), 3)
    b = run_once(small(), 3)
    assert a == b
    assert a.seed == 5 ^ 3
    c = run_once(small(), 4)
    assert c.seed == 5 ^ 4


def test_every_protocol_runs():
    for name in PROTOCOLS:
        res = run_once(small(protocol=name, runs=1), 0)
        assert res.ereq_count >= 1


def test_batch_results_arrive_in_run_order(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "1")
    results, agg = run_batch(small())
    assert [r.run_index for r in results] == [0, 1, 2, 3]
    assert agg.runs_total == 4


def test_worker_pool_matches_serial(monkeypatch):
    cfg = small(runs=6)
    monkeypatch.setenv(THREADS_ENV, "1")
    serial_results, serial_agg = run_batch(cfg)
    monkeypatch.setenv(THREADS_ENV, "3")
    pool_results, pool_agg = run_batch(cfg)
    assert pool_results == serial_results
    assert pool_agg == serial_agg


def test_run_batches_equals_run_batch_per_config(monkeypatch):
    configs = [small(runs=5), small(protocol="flooding", n=6, runs=1),
               small(protocol="probabilistic", tau=0.4, runs=3),
               small(protocol="locate-basic", n=14, tau=0.1, runs=2)]
    monkeypatch.setenv(THREADS_ENV, "1")
    serial = [run_batch(cfg) for cfg in configs]
    monkeypatch.setenv(THREADS_ENV, "3")
    assert run_batches(configs) == serial


def test_sweep_starts_one_pool(monkeypatch):
    started = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setenv(THREADS_ENV, "2")
    base = small(runs=2)
    args = ("tau", [0.1, 0.2, 0.3], ["locate", "flooding"])
    rows = sweep(sweep_points(base, *args))
    assert len(started) == 1
    monkeypatch.setenv(THREADS_ENV, "1")
    assert [(row.results, row.agg) for row in rows] \
        == [run_batch(cfg) for cfg in sweep_points(base, *args)]


SRC = str(Path(experiments.__file__).resolve().parent.parent)


def run_fresh(script, threads):
    """Run `script` in a new interpreter that imports locatesim from this checkout."""
    env = {**os.environ, THREADS_ENV: str(threads)}
    code = f"import sys; sys.path.insert(0, {SRC!r})\n" + textwrap.dedent(script)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_and_serial_batches_leave_the_pool_and_statistics_unloaded():
    run_fresh("""
        import locatesim.cli
        pool_modules = ("concurrent.futures.process", "multiprocessing")
        loaded = [m for m in (*pool_modules, "statistics") if m in sys.modules]
        assert not loaded, loaded
        from locatesim import experiments
        experiments.run_batch(experiments.ScenarioConfig(n=5, runs=2, horizon_s=600.0))
        loaded = [m for m in pool_modules if m in sys.modules]
        assert not loaded, loaded
        import concurrent.futures
        assert experiments.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    """, threads=1)


def test_pool_class_loads_on_first_pooled_batch():
    with pytest.raises(AttributeError, match="locatesim.experiments"):
        experiments.NoSuchName
    assert not hasattr(experiments, "NoSuchName")
    assert getattr(experiments, "NoSuchName", None) is None
    run_fresh("""
        import os
        from locatesim import experiments
        assert "ProcessPoolExecutor" not in vars(experiments)
        configs = [experiments.ScenarioConfig(n=8, runs=3, base_seed=seed, horizon_s=900.0)
                   for seed in (2, 3)]
        pooled = experiments.run_batches(configs)
        assert "ProcessPoolExecutor" in vars(experiments)
        os.environ[experiments.THREADS_ENV] = "1"
        assert pooled == experiments.run_batches(configs)
    """, threads=2)


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    assert worker_count(4) >= 1
    monkeypatch.setenv(THREADS_ENV, "3")
    assert worker_count(100) == 3
    assert worker_count(2) == 2  # never more workers than runs
    monkeypatch.setenv(THREADS_ENV, "0")
    assert worker_count(100) >= 1
    monkeypatch.setenv(THREADS_ENV, "-2")
    with pytest.raises(ValueError):
        worker_count(4)
    monkeypatch.setenv(THREADS_ENV, "many")
    with pytest.raises(ValueError):
        worker_count(4)


@pytest.mark.parametrize("env", [None, "0"])
def test_worker_count_default_is_the_cpus_this_process_may_use(monkeypatch, env):
    if env is None:
        monkeypatch.delenv(THREADS_ENV, raising=False)
    else:
        monkeypatch.setenv(THREADS_ENV, env)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert worker_count(100) == 3  # the affinity mask, not the host's 8 CPUs
    assert worker_count(2) == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert worker_count(100) == 8  # no affinity call on this platform: every CPU
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(100) == 1


@pytest.mark.parametrize("airtime", [0.4, 1.0])
def test_copies_land_one_airtime_after_the_transmission(airtime):
    trace = []
    run_once(small(n=2, runs=1, radio=lora_profile(airtime_s=airtime)), 0,
             world=line_world(), trace=trace)
    tx_times = [e[1] for e in trace if e[0] == "tx"]
    aware = [e for e in trace if e[0] == "aware"]
    assert aware[0] == ("aware", airtime, 1)  # the relay hears the first beacon
    assert len(aware) == 2
    for _, t, _ in aware:
        assert any(tx + airtime == t for tx in tx_times)


def _twin_solvers():
    # two solvers 1 m either side of the source: both reply within 0.1 s of
    # each other, so their replies always overlap at the source
    return static_world(2500.0, [(1250.0, 1250.0), (1251.0, 1250.0, Role.SOLVER),
                                 (1249.0, 1250.0, Role.SOLVER)])


def test_collisions_drop_overlapping_replies_end_to_end():
    for idx in range(3):
        clean = run_once(small(n=2, runs=1, horizon_s=120.0), idx, world=_twin_solvers())
        assert clean.solved and clean.ert_s <= 0.9
        cfg = small(n=2, runs=1, horizon_s=120.0,
                    radio=lora_profile(interference="collision"))
        jammed = run_once(cfg, idx, world=_twin_solvers())
        assert not jammed.solved
        assert jammed.end_time_s == 120.0
        assert jammed.ereq_count >= 5  # the source keeps beaconing into the collisions


# RunResult fields recorded before the collision rule, timer registry and
# solved transition were each reduced to one implementation; any change to
# them is a change to the simulator's outputs
PINNED = [
    ("locate", 0, True, 10.70793022263093, 17, 4, 1800.0),
    ("locate", 1, True, 24.022045785191988, 9, 6, 239.19923467365533),
    ("locate", 2, False, None, 179, 0, 1800.0),
    ("locate-basic", 0, True, 10.70793022263093, 17, 4, 1800.0),
    ("locate-basic", 1, True, 24.022045785191988, 35, 5, 1800.0),
    ("locate-basic", 2, False, None, 191, 0, 1800.0),
    ("flooding", 0, True, 13.996477835021594, 2, 4, 1800.0),
    ("flooding", 1, True, 23.23227581796452, 7, 5, 1800.0),
    ("flooding", 2, False, None, 148, 0, 1800.0),
    ("probabilistic", 0, True, 13.996477835021594, 1, 2, 1800.0),
    ("probabilistic", 1, True, 591.7237391551736, 48, 1, 1800.0),
    ("probabilistic", 2, False, None, 148, 0, 1800.0),
]

PINNED_COLLISION = [  # locate, smooth loss, collisions on, 2.5 km arena
    (0, True, 4.256656131586924, 1, 4, 4.256656131586924),
    (1, True, 8.897120637146584, 4, 27, 37.26015449615932),
    (2, True, 62.59968342206183, 16, 24, 95.18707473273054),
    (3, True, 2.0402213103093434, 1, 2, 3.9710223170334737),
]


def _fields(res):
    return (res.solved, res.ert_s, res.ereq_count, res.erep_count, res.end_time_s)


def test_pinned_run_results():
    for protocol, idx, *expected in PINNED:
        cfg = ScenarioConfig(n=40, tau=0.15, protocol=protocol, horizon_s=1800.0)
        assert _fields(run_once(cfg, idx)) == tuple(expected), (protocol, idx)


def test_pinned_collision_run_results():
    cfg = ScenarioConfig(n=40, tau=0.15, side_m=2500.0, horizon_s=1800.0,
                         radio=lora_profile(pdr_model="smooth", interference="collision"))
    for idx, *expected in PINNED_COLLISION:
        assert _fields(run_once(cfg, idx)) == tuple(expected), idx


# 24 h runs recorded before the quiescence exit: runs 0, 2 (both protocols)
# and 1 (locate-basic) end at the horizon with spent carriers still ticking,
# the run-3s and locate run 1 end when everyone aware is solved; in the last
# three, a reply is still in flight when the last node able to transmit falls
# silent, and relaying it adds to erep_count
PINNED_24H = [
    ("locate", 0, True, 10.70793022263093, 17, 4, 86400.0),
    ("locate", 1, True, 24.022045785191988, 9, 6, 239.19923467365533),
    ("locate", 2, True, 3339.6957981499777, 394, 3, 86400.0),
    ("locate", 3, True, 212.52330101183483, 47, 4, 216.1868719928329),
    ("locate-basic", 0, True, 10.70793022263093, 17, 4, 86400.0),
    ("locate-basic", 1, True, 24.022045785191988, 35, 5, 86400.0),
    ("locate-basic", 2, True, 3339.379553555742, 436, 5, 86400.0),
    ("locate-basic", 3, True, 213.86778141553373, 67, 3, 218.72358893160848),
    ("locate-basic", 13, True, 496.28998040105637, 158, 7, 86400.0),
    ("flooding", 0, True, 13.996477835021594, 2, 4, 86400.0),
    ("probabilistic", 0, True, 13.996477835021594, 1, 2, 86400.0),
]


def test_pinned_24h_run_results():
    for protocol, idx, *expected in PINNED_24H:
        cfg = ScenarioConfig(n=40, tau=0.15, protocol=protocol)
        assert _fields(run_once(cfg, idx)) == tuple(expected), (protocol, idx)


def _static_trio():
    # a solver 300 m west answers the source; three relays 400 m east never
    # hear the reply, carry the request and freeze on each other's rebroadcasts
    half = 2500.0
    return static_world(5000.0, [(half, half), (half - 300.0, half, Role.SOLVER),
                                 (half + 400.0, half + 30.0, Role.RELAY),
                                 (half + 400.0, half - 30.0, Role.RELAY),
                                 (half + 420.0, half, Role.RELAY)])


def _convoy():
    # the three relays walk east side by side at 20 m/s, faster than any leg
    # start_leg draws, so they freeze on each other and thaw 2.5 s later
    world = _static_trio()
    for node in (2, 3, 4):
        walking(world, node, 20.0)
    return world


def test_skipped_freeze_polls_equal_polling_every_second(monkeypatch):
    # The reference runner pops every tick of the 1 s poll lattice and has no speed bound:
    # the skipping run must agree with it for carriers walking faster than any random leg
    # and for carriers frozen in place, and pop under half as many polls
    carry = ScenarioConfig(n=4, tau=0.25, horizon_s=600.0, params=ProtocolParams(p_start=1.0))
    cases = [(carry, idx, _convoy) for idx in range(4)]
    cases.append((dataclasses.replace(carry, horizon_s=3600.0), 3, _static_trio))
    skipped = [reference.compare(cfg, idx, make_world) for cfg, idx, make_world in cases]
    popped = []
    poll = LocateBehavior.on_freeze_poll

    def counted(self, *args):
        popped.append(args)
        return poll(self, *args)

    monkeypatch.setattr(LocateBehavior, "on_freeze_poll", counted)
    polls = {}
    for runner in (run_once, reference.run):
        popped.clear()
        for cfg, idx, make_world in cases:
            runner(cfg, idx, world=make_world())
        polls[runner] = len(popped)
    assert polls[run_once] < polls[reference.run] / 2
    for res, trace in skipped[:-1]:
        # each convoy carrier thaws at the third tick after it froze (50 m at 20 m/s),
        # which a bound of SPEED_MAX alone would skip past
        frozen = {}
        gaps = []
        for e in trace:
            if e[0] == "phase" and e[3] == DTN_FROZEN:
                frozen[e[2]] = e[1]
            elif e[0] == "phase" and e[3] == DTN_ACTIVE and e[2] in frozen:
                gaps.append(e[1] - frozen.pop(e[2]))
        assert gaps and all(gap == pytest.approx(3.0) for gap in gaps)
    # carriers that stand still stay frozen with hop budget left, to the horizon
    res, trace = skipped[-1]
    assert res.end_time_s == 3600.0
    last_phase = {e[2]: e[3] for e in trace if e[0] == "phase"}
    assert sorted(node for node, phase in last_phase.items() if phase == DTN_FROZEN) == [2, 3, 4]


# the static trio with a thaw distance no carrier can walk, at the 1e6 s horizon floor:
# the result and trace as recorded while each frozen carrier's poll still walked the 1 s
# lattice to the horizon
NEVER_THAWS = (
    RunResult(3, 2, True, 12.333058200159545, 6, 1, 1e6),
    [("tx", 0.0, 0, 0, 16), ("aware", 0.4, 1), ("phase", 0.4, 1, 1), ("aware", 0.4, 2),
     ("phase", 0.4, 2, 1), ("aware", 0.4, 3), ("phase", 0.4, 3, 1), ("aware", 0.4, 4),
     ("phase", 0.4, 4, 1), ("tx", 11.933058200159545, 1, 1, 15),
     ("phase", 11.933058200159545, 1, 5), ("phase", 12.333058200159545, 0, 5),
     ("phase", 20.4, 2, 2), ("phase", 20.4, 3, 2), ("phase", 20.4, 4, 2),
     ("tx", 20.771682143355566, 2, 0, 15), ("phase", 20.771682143355566, 2, 3),
     ("tx", 20.957818605270916, 3, 0, 15), ("phase", 20.957818605270916, 3, 3),
     ("phase", 21.171682143355564, 4, 3), ("tx", 30.793729007192727, 3, 0, 14),
     ("tx", 35.07587886195096, 4, 0, 15), ("tx", 35.45984460988348, 2, 0, 14),
     ("phase", 35.47587886195096, 2, 4), ("phase", 35.47587886195096, 3, 4),
     ("phase", 35.85984460988348, 4, 4)])


def test_a_poll_that_cannot_thaw_before_the_horizon_skips_the_lattice(monkeypatch):
    cfg = ScenarioConfig(n=4, tau=0.25, horizon_s=1e6,
                         params=ProtocolParams(p_start=1.0, dtn_dist_m=1e300))
    polls = []
    schedule = EventQueue.schedule

    def recorded(queue, time, kind, node, data=None):
        if kind == FREEZE_POLL:
            polls.append(time)
        return schedule(queue, time, kind, node, data)

    monkeypatch.setattr(EventQueue, "schedule", recorded)
    trace = []
    assert (run_once(cfg, 3, world=_static_trio(), trace=trace), trace) == NEVER_THAWS
    # each of the three frozen carriers arms its poll one period past the horizon
    assert [t for t in polls if t > cfg.horizon_s] == [cfg.horizon_s + 1.0] * 3


def test_no_leg_end_is_queued_past_the_horizon(monkeypatch):
    # a 30 min run with smooth loss and collisions that stays unsolved to the horizon;
    # the last leg of each of its 40 mobile nodes ends past the horizon
    cfg = ScenarioConfig(n=40, tau=0.15, horizon_s=1800.0, radio=lora_profile(
        pdr_model=SMOOTH, interference=INTERFERENCE_COLLISION))
    leg_ends, queued = [], []
    new_leg, schedule = world._new_leg, EventQueue.schedule

    def recorded_leg(*args):
        leg = new_leg(*args)
        leg_ends.append(leg.end)
        return leg

    def recorded(queue, time, kind, node, data=None):  # the placement and every later leg end
        if kind == LEG_END:
            queued.append(time)
        return schedule(queue, time, kind, node, data)

    monkeypatch.setattr(world, "_new_leg", recorded_leg)  # placement and every leg end
    monkeypatch.setattr(EventQueue, "schedule", recorded)
    trace = []
    result = run_once(cfg, 2, trace=trace)
    assert sum(end > cfg.horizon_s for end in leg_ends) == 40
    assert queued == [end for end in leg_ends if end <= cfg.horizon_s]
    # as recorded when every leg end was queued
    assert result == RunResult(2, 3, False, None, 170, 0, 1800.0)
    assert len(trace) == 177
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == \
        "528338a920d1c413aeb369cab524c0d16c43db2be13d276df3af2d12e38b7a78"


def test_leg_ends_at_one_instant_start_their_next_legs_in_node_order(monkeypatch):
    # no drawn world has two placement leg ends at one instant: nodes 1 and 2 walk east
    # from x = 500 m at 5 m/s and both reach the edge of the 1 km arena at t = 100 s
    started = []
    start_leg = World.start_leg

    def recorded(self, node, t, stream):
        started.append((node, t))
        return start_leg(self, node, t, stream)

    monkeypatch.setattr(World, "start_leg", recorded)
    pair = static_world(1000.0, [(0.0, 500.0), (500.0, 300.0, Role.RELAY),
                                 (500.0, 700.0, Role.RELAY)])
    walkers = walking(walking(pair, 1, 5.0), 2, 5.0)
    cfg = ScenarioConfig(n=2, tau=0.0, protocol="flooding", side_m=1000.0, horizon_s=100.0)
    assert run_once(cfg, 0, world=walkers).end_time_s == 100.0
    assert started == [(1, 100.0), (2, 100.0)]


def test_a_leg_ending_at_the_horizon_still_ends(monkeypatch):
    started = []
    start_leg = World.start_leg

    def recorded(self, node, t, stream):
        leg = start_leg(self, node, t, stream)
        started.append((node, t, leg.end))
        return leg

    monkeypatch.setattr(World, "start_leg", recorded)

    def walker():
        # node 1 walks east from x = 500 m at 5 m/s and reaches the edge of the 1 km arena
        # at t = 100 s; the source keeps beaconing, so only the horizon ends the run
        return walking(static_world(1000.0, [(0.0, 500.0), (500.0, 500.0, Role.RELAY)]), 1, 5.0)

    def legs_started(horizon_s):
        cfg = ScenarioConfig(n=1, tau=0.0, protocol="flooding", side_m=1000.0,
                             horizon_s=horizon_s)
        started.clear()
        assert run_once(cfg, 0, world=walker()).end_time_s == horizon_s
        legs = [(node, t) for node, t, _ in started]
        reference.compare(cfg, 0, walker)  # the reference queues every leg end
        return legs

    # the hand-built leg ends at the horizon and pops; the next one ends past it
    assert legs_started(100.0) == [(1, 100.0)]
    drawn_end = started[0][2]
    assert drawn_end > 100.0
    # so does a drawn leg that ends at the horizon
    assert legs_started(drawn_end) == [(1, 100.0), (1, drawn_end)]


def test_frozen_carrier_with_hop_budget_is_not_cut_off():
    cfg = ScenarioConfig(n=4, tau=0.25, horizon_s=600.0, params=ProtocolParams(p_start=1.0))
    trace = []
    # node 4 walks east at 0.5 m/s, so only it thaws, about 100 s later
    res = run_once(cfg, 3, world=walking(_static_trio(), 4, 0.5), trace=trace)
    frozen = {e[2]: e[1] for e in trace if e[0] == "phase" and e[3] == DTN_FROZEN}
    assert sorted(frozen) == [2, 3, 4]
    all_frozen = max(frozen.values())
    assert res.ert_s < all_frozen  # the source is solved: only the frozen carriers could go on
    later = [(e[1], e[2]) for e in trace if e[0] == "tx" and e[1] > all_frozen]
    assert later and all(node == 4 for _, node in later)  # the walker thaws and carries on
    assert later[0][0] > all_frozen + 100.0  # 50 m at 0.5 m/s
    assert res.end_time_s == 600.0


def test_a_solved_carrier_pops_no_freeze_poll(monkeypatch):
    # solving cancels the POLL slot with every other timer, so no poll reaches a solved
    # node; with polls kept outside `live`, 19 popped idle in 10 of these 40 runs
    cfg = ScenarioConfig(n=40, tau=0.15, horizon_s=1800.0)
    polled = []
    poll = LocateBehavior.on_freeze_poll

    def recorded(self, st, *args):
        polled.append((idx, st.node, st.phase))
        return poll(self, st, *args)

    monkeypatch.setattr(LocateBehavior, "on_freeze_poll", recorded)
    for idx in range(40):
        run_once(cfg, idx)
    assert len({idx for idx, _, _ in polled}) >= 10  # the sample freezes carriers
    assert [call for call in polled if call[2] == SOLVED] == []


@pytest.mark.parametrize("protocol", ["locate", "locate-basic"])
def test_quiescent_exit_equals_a_run_to_the_horizon(protocol):
    cfg = ScenarioConfig(n=40, tau=0.15, protocol=protocol)
    # the reference has no quiescent exit: it runs on to the horizon, logging at most
    # phase entries after the shipped run's last entry, and its result is the same
    results = [reference.compare(cfg, idx)[0] for idx in range(6)]
    # the sample must hold runs that end at the horizon, which the quiescent exit decides
    assert sum(res.end_time_s == cfg.horizon_s for res in results) >= 3


def test_a_never_quiescent_run_whose_queue_drains_ends_at_the_horizon(monkeypatch):
    # flooding's relays arm nothing once they have relayed, and the solved source stops
    # beaconing, so with may_transmit patched to always hold, run 3's queue drains after
    # its last leg end before the horizon; the run still ends at the horizon, as the
    # quiescent exit has it
    cfg = ScenarioConfig(n=20, tau=0.15, protocol="flooding", horizon_s=3600.0)
    quiet = run_once(cfg, 3)
    peek = EventQueue.peek
    peeked = []

    def recorded(queue):
        peeked.append(peek(queue))
        return peeked[-1]

    monkeypatch.setattr(EventQueue, "peek", recorded)
    monkeypatch.setattr(experiments, "may_transmit", lambda st: True)
    assert run_once(cfg, 3) == quiet == RunResult(3, 2, True, 1407.598612785365, 119, 1, 3600.0)
    assert peeked[-1] is None


def test_a_reused_world_is_reindexed_for_each_run():
    # node 1 starts 1,400 m west of the source; in the second run it walks east
    # at 40 m/s, faster than any leg the first run's position index allowed for
    world = static_world(5000.0, [(2500.0, 2500.0), (1100.0, 2500.0, Role.RELAY)])
    cfg = ScenarioConfig(n=1, tau=0.0, protocol="flooding", horizon_s=1.0)
    trace = []
    run_once(cfg, 0, world=world, trace=trace)  # one beacon, at t = 0
    assert [e[0] for e in trace] == ["tx"]
    walking(world, 1, 40.0)  # in range from t = 22.5 s to 47.5 s
    trace = []
    run_once(dataclasses.replace(cfg, horizon_s=60.0), 0, world=world, trace=trace)
    assert [e[2] for e in trace if e[0] == "aware"] == [1]


def _zero_delay_world():
    # a solver standing on the source has a zero-width reply window, so its reply
    # fires at the very time the beacon lands
    return static_world(2500.0, [(1250.0, 1250.0), (1250.0, 1250.0, Role.SOLVER),
                                 (1350.0, 1250.0, Role.RELAY), (1450.0, 1250.0, Role.RELAY)])


def test_copies_of_one_broadcast_are_handled_before_a_zero_delay_reply():
    # the two relays hearing the same beacon log their copies before the reply, as with
    # one event per copy
    trace = []
    run_once(small(n=3, runs=1), 0, world=_zero_delay_world(), trace=trace)
    at_landing = [e[:4] for e in trace if e[1] == 0.4]
    reply = at_landing.index(("tx", 0.4, 1, E_REP))
    for node in (2, 3):
        assert at_landing.index(("aware", 0.4, node)) < reply
        assert [e[:3] for e in at_landing].index(("phase", 0.4, node)) < reply
    # under collisions the reply's frame starts as the beacon's ends, so the relays, which
    # heard both, drop the reply's copies (the frames touch): the reference agrees
    radio = lora_profile(interference=INTERFERENCE_COLLISION)
    reference.compare(small(n=3, runs=1, radio=radio), 0, _zero_delay_world)


def test_a_run_stops_inside_a_broadcast_once_nobody_waits():
    # the solver's reply reaches the source and a node 700 m east of it that never
    # heard the request; the source's copy solves the last waiting node, so the
    # run ends there and the other copy is never handled
    world = static_world(2500.0, [(1250.0, 1250.0), (1550.0, 1250.0, Role.SOLVER),
                                  (1950.0, 1250.0, Role.RELAY)])
    trace = []
    res = run_once(small(n=2, runs=1), 0, world=world, trace=trace)
    reply = [e for e in trace if e[0] == "tx" and e[3] == E_REP]
    assert [e[2] for e in reply] == [1]
    assert res.solved and res.ert_s == reply[0][1] + lora_profile().airtime_s
    assert res.end_time_s == res.ert_s
    assert res.erep_count == 1
    assert all(e[2] != 2 for e in trace)


def _spur_world(*extra):
    # a solver 300 m west of the source and a relay 400 m east, out of the
    # solver's range: the relay never hears the reply
    return static_world(2500.0, [(1250.0, 1250.0), (950.0, 1250.0, Role.SOLVER),
                                 (1650.0, 1250.0, Role.RELAY), *extra])


# a second solver 400 m past the relay, out of the source's range
FAR_SOLVER = (2050.0, 1250.0, Role.SOLVER)


@pytest.mark.parametrize("protocol,ttl,extra,expected", [
    # the relay forwards once and goes quiet: the queue drains
    ("flooding", 16, (), (True, 17.74867473874465, 4, 1, 17.74867473874465)),
    # the relay's last rebroadcast, sent with no hop budget left, lands at 22.48 s;
    # from then on the relay could only tick silently until the horizon
    ("locate", 1, (), (True, 11.111478346337321, 3, 1, 22.479338693608234)),
    ("locate-basic", 1, (), (True, 11.111478346337321, 3, 1, 22.479338693608234)),
    # the far solver hears only that ttl-0 copy: aware, it has nothing to answer and
    # arms nothing, so it does not hold the run open after the copy lands
    ("locate", 1, (FAR_SOLVER,), (True, 11.111478346337321, 3, 1, 22.479338693608234)),
    ("locate-basic", 1, (FAR_SOLVER,), (True, 11.111478346337321, 3, 1, 22.479338693608234)),
])
def test_static_worlds_end_when_nothing_can_transmit(protocol, ttl, extra, expected):
    cfg = ScenarioConfig(n=2 + len(extra), tau=0.5, side_m=2500.0, protocol=protocol,
                         horizon_s=3600.0, params=ProtocolParams(ttl_init=ttl))
    assert _fields(run_once(cfg, 0, world=_spur_world(*extra))) == expected


def run_result(idx, solved, ert, ereq=10):
    return RunResult(idx, idx ^ 1, solved, ert, ereq, 2 if solved else 0,
                     ert if solved else 3600.0)


def test_aggregate_success_ratio_uses_the_deadline():
    rows = [run_result(0, True, 100.0), run_result(1, True, 2000.0),
            run_result(2, False, None)]
    agg = aggregate(rows, e_thr_s=1800.0)
    assert agg.runs_total == 3
    assert agg.runs_solved == 2
    assert agg.err_pct == pytest.approx(1.0 / 3.0)
    assert agg.ert_mean_s == pytest.approx(1050.0)  # late solves still count here
    assert agg.eo_mean == pytest.approx(10.0)
    assert agg.ert_ci95_s is not None and agg.eo_ci95 is not None


def test_aggregate_single_and_empty_edge_cases():
    agg = aggregate([run_result(0, True, 50.0)], e_thr_s=1800.0)
    assert agg.ert_ci95_s is None and agg.eo_ci95 is None
    agg = aggregate([run_result(0, False, None)], e_thr_s=1800.0)
    assert agg.ert_mean_s is None and agg.err_pct == 0.0
    with pytest.raises(ValueError):
        aggregate([], e_thr_s=1800.0)


def test_dense_arena_always_resolves(monkeypatch):
    # everything inside one radio range: the success ratio must be 1.0
    monkeypatch.setenv(THREADS_ENV, "1")
    _, agg = run_batch(small(n=6, tau=1.0, side_m=400.0, runs=5))
    assert agg.err_pct == 1.0
    assert agg.ert_mean_s < 60.0


def test_sweep_produces_a_row_per_protocol_and_value():
    rows = sweep(sweep_points(small(runs=2), "tau", [0.1, 0.3], ["locate", "flooding"]))
    assert [(r.protocol, r.tau) for r in rows] \
        == [("locate", 0.1), ("locate", 0.3), ("flooding", 0.1), ("flooding", 0.3)]
    # rows share seeds: matched worlds across protocols at each point
    assert [r.seed for r in rows[0].results] == [r.seed for r in rows[2].results]


def test_sweep_axis_variants_and_validation():
    rows = sweep(sweep_points(small(runs=1), "n", [4.0], None))
    assert rows[0].n == 4 and rows[0].protocol == "locate"
    rows = sweep(sweep_points(small(runs=1), "p_start", [0.8]))
    assert rows[0].p_start == 0.8
    with pytest.raises(ValueError):
        sweep(sweep_points(small(runs=1), "side", [1.0]))
    with pytest.raises(ValueError):
        sweep(sweep_points(small(runs=1), "n", [4.5]))
    with pytest.raises(ValueError):
        sweep(sweep_points(small(runs=1), "tau", []))


def traced_run(**kw):
    trace = []
    res = run_once(small(**kw), 1, trace=trace)
    return res, trace


def test_request_transmissions_match_the_counter():
    res, trace = traced_run(n=14, runs=1, horizon_s=2500.0)
    tx_req = [e for e in trace if e[0] == "tx" and e[3] == E_REQ]
    assert len(tx_req) == res.ereq_count
    tx_rep = [e for e in trace if e[0] == "tx" and e[3] != E_REQ]
    assert len(tx_rep) == res.erep_count


def test_aware_set_only_grows():
    _, trace = traced_run(n=14, runs=1, horizon_s=2500.0)
    seen = set()
    last_t = 0.0
    for e in trace:
        if e[0] == "aware":
            assert e[2] not in seen
            assert e[1] >= last_t
            seen.add(e[2])
            last_t = e[1]


def test_runs_end_at_or_before_horizon():
    for idx in range(4):
        res = run_once(small(horizon_s=800.0), idx)
        assert res.end_time_s <= 800.0


def test_solved_nodes_never_rebroadcast_requests():
    res, trace = traced_run(n=14, runs=1, horizon_s=2500.0)
    solved_at = {}
    for e in trace:
        if e[0] == "phase" and e[3] == SOLVED:
            solved_at[e[2]] = e[1]
    assert solved_at  # the scenario resolves for at least one node
    for e in trace:
        if e[0] == "tx" and e[3] == E_REQ and e[2] in solved_at:
            assert e[1] <= solved_at[e[2]]


def test_transmitted_ttls_stay_within_the_initial_budget():
    cfg = small(n=14, runs=1, horizon_s=2500.0)
    _, trace = traced_run(n=14, runs=1, horizon_s=2500.0)
    ttls = [e[4] for e in trace if e[0] == "tx"]
    assert ttls
    assert all(0 <= ttl <= cfg.params.ttl_init for ttl in ttls)


def test_full_dtn_optimization_does_not_raise_overhead():
    # statistical dominance check over 200 paired runs: the acceptance gate's cached
    # batches at n=40, tau 0.15, base seed 1
    full_runs, full = gate.batch("locate")
    plain_runs, plain = gate.batch("locate-basic")
    print(dtn_optimization(full_runs, plain_runs)[1])
    assert full.eo_mean <= plain.eo_mean
