"""Tests of the benchmark's own code: percentiles, span arithmetic, run checks, counts.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
from pathlib import Path

import pytest

import reference
import run
import workloads
from locatesim import experiments
from locatesim.experiments import RunResult, ScenarioConfig
from locatesim.world import MobilityLeg, NodeRecord, Role, World
from spans import Tracer, fold, self_times
from speed import REFERENCE_S, SpeedLog

BENCH = Path(__file__).resolve().parent.parent


# -- percentile rule -----------------------------------------------------------

def test_p90_kept_when_ten_samples_lie_beyond_it():
    q, value = run.tail_percentile([float(i) for i in range(1, 101)])
    assert q == 90
    assert sum(1 for s in range(1, 101) if s > value) == 10


def test_p90_falls_back_when_fewer_than_ten_samples_lie_beyond_it():
    samples = [float(i) for i in range(1, 100)]  # 99 samples: 9 beyond p90
    q, value = run.tail_percentile(samples)
    assert q == 75
    assert sum(1 for s in samples if s > value) >= 10


def test_p90_falls_back_to_the_median_then_gives_up():
    assert run.tail_percentile([float(i) for i in range(1, 31)])[0] == 50
    assert run.tail_percentile([float(i) for i in range(1, 11)]) is None


# -- self time ------------------------------------------------------------------

def span(name, start, end, parent):
    return (name, start, end, parent, None)


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once_and_clips_overhang():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("c1", 1.0, 5.0, 0),
        span("c2", 4.0, 8.0, 0),  # overlaps c1: union 1..8
        span("c3", 9.0, 12.0, 0),  # runs past the parent: counts 9..10
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_fold_sums_calls_self_and_inclusive_time_per_name():
    spans = [
        span("run", 0.0, 10.0, -1),
        span("leaf", 1.0, 2.0, 0),
        span("leaf", 3.0, 5.0, 0),
        (None, 6.0, 7.0, 0, None),  # already folded: still covers its parent
    ]
    totals = {}
    fold(spans, totals)
    assert totals["run"] == [1, pytest.approx(6.0), pytest.approx(10.0)]
    assert totals["leaf"] == [2, pytest.approx(3.0), pytest.approx(3.0)]
    assert None not in totals


# -- speed scaling ----------------------------------------------------------------

def test_speed_factor_uses_the_median_calibration_near_an_interval():
    log = SpeedLog()
    log.at = [0.0, 0.1, 0.3, 0.9, 5.0]
    log.took = [1.0, 4.0, 2.0, 3.0, 100.0]
    # samples within 0.5 s of [0.2, 0.4]: 1, 4, 2, 3 -> median 2.5; the one at 5 s is out
    assert log.factor(0.2, 0.4) == pytest.approx(REFERENCE_S / 2.5)
    assert log.median_factor() == pytest.approx(REFERENCE_S / 3.0)
    with pytest.raises(ValueError):
        log.factor(2.0, 2.1)


def test_serial_pass_calibrates_around_every_run():
    cfg = small_config()
    plan = [(cfg.protocol, cfg.tau, i) for i in range(3)]
    log = SpeedLog()
    _wall, spans, _results = run.run_pass(plan, {(cfg.protocol, cfg.tau): cfg}, {},
                                          cfg.horizon_s, run.Tally(), log)
    assert len(log.took) == len(plan) + 1
    for (t0, t1), before, after in zip(spans, log.at, log.at[1:]):
        assert before < t0 < t1 <= after


# -- per-run check ------------------------------------------------------------------

def small_config():
    return ScenarioConfig(n=5, tau=0.4, protocol="flooding", horizon_s=1800.0)


def test_perturbed_result_is_counted_as_failed():
    cfg = small_config()
    plan = [(cfg.protocol, cfg.tau, i) for i in range(3)]
    expected = {key: reference.fields(experiments.run_once(cfg, key[2])) for key in plan}
    key = plan[1]
    want = list(expected[key])
    want[6] = math.nextafter(want[6], math.inf)  # end_time_s one ulp off
    expected[key] = tuple(want)
    tally = run.Tally()
    run.run_pass(plan, {(cfg.protocol, cfg.tau): cfg}, expected, cfg.horizon_s, tally)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert str(key) in tally.reasons[0]


def test_invariant_violations_are_reported():
    ok = RunResult(0, 1, True, 5.0, 3, 1, 5.0)
    assert reference.violations(ok, 1800.0) == []
    assert reference.violations(RunResult(0, 1, True, None, 3, 1, 5.0), 1800.0)
    assert reference.violations(RunResult(0, 1, True, 6.0, 3, 1, 5.0), 1800.0)
    assert reference.violations(RunResult(0, 1, False, None, 0, 0, 5.0), 1800.0)
    assert reference.violations(RunResult(0, 1, False, None, 2, 0, 1900.0), 1800.0)


def test_reference_rows_read_back_bit_exact():
    expected, events = reference.load("lossy-collide-30m")
    w = workloads.serial("lossy-collide-30m")
    cfg = workloads.configs(w)[0]
    for i in (0, 17):
        key = (cfg.protocol, cfg.tau, i)
        assert reference.fields(experiments.run_once(cfg, i)) == expected[key]
        assert events[key] > 0


# -- hand-counted run -----------------------------------------------------------------

def still(x, y):
    return MobilityLeg(x, y, 0.0, 0.0, 0.0, math.inf, 0.0, 0.0)


def pair_world():
    """The source and one static solver 300 m away: no mobility, so no leg ends."""
    return World([NodeRecord(0, Role.SOURCE, True, still(2500.0, 2500.0)),
                  NodeRecord(1, Role.SOLVER, True, still(2800.0, 2500.0))], 5000.0)


def test_recorder_counts_match_a_hand_counted_run():
    # Flooding, run 5: the source's first request (broadcast 1) is delivered to
    # the solver at 0.4 s, which arms its reply timer. The timer fires at
    # 2.46 s, before the source's beacon timer, and sends the reply (broadcast
    # 2), delivered to the source at 2.86 s. The source cancels its beacon and
    # the run ends: 3 events (2 deliveries, 1 timer), 4 schedules (delivery,
    # beacon, reply timer, delivery), 1 cancel, 3 peeks, 8 position_at calls
    # (start_emergency 1, each broadcast 2, each handler 1).
    cfg = ScenarioConfig(n=1, tau=1.0, protocol="flooding", horizon_s=1800.0)
    with Tracer() as tracer:
        result = experiments.run_once(cfg, 5, world=pair_world())
    tracer.finish()
    assert (result.ereq_count, result.erep_count) == (1, 1)
    assert result.ert_s == pytest.approx(2.8633206846143158)
    counts = tracer.counts
    assert tracer.events() == 3
    assert (counts["kernel.delivery_events"], counts["kernel.timer_events"],
            counts["kernel.leg_end_events"], counts["kernel.freeze_poll_events"]) == (2, 1, 0, 0)
    calls = {name: v[0] for name, v in tracer.totals.items()}
    assert calls["radio.broadcast"] == 2
    assert counts["radio.receptions"] == 2
    assert calls["kernel.schedule"] == 4
    assert calls["kernel.cancel"] == 1
    assert calls["kernel.peek"] == 3
    assert calls["kernel.pop"] == 3
    assert calls["world.position_at"] == 8
    assert calls["protocol.on_delivery"] == 2
    assert calls["protocol.on_timer"] == 1
    assert counts["protocol.timer_tx"] == 1
    assert calls["experiments.run_once"] == 1
    assert "world.random" not in calls  # the world was given


def test_tracer_restores_every_name_it_wrapped():
    from locatesim import cli, kernel
    before = (experiments.run_once, experiments.broadcast, kernel.EventQueue.pop,
              World.__dict__["random"], cli.main, cli.write_outputs)
    with Tracer():
        assert experiments.run_once is not before[0]
    after = (experiments.run_once, experiments.broadcast, kernel.EventQueue.pop,
             World.__dict__["random"], cli.main, cli.write_outputs)
    assert after == before


# -- workloads and BENCHMARK.json -----------------------------------------------------

def test_stratified_pass_is_seeded_and_takes_one_run_per_stratum():
    ranked = [("p", 0.1, i) for i in range(30)]
    a = workloads.stratified_pass(ranked, 10, seed=4)
    assert a == workloads.stratified_pass(ranked, 10, seed=4)
    assert sorted(it[2] // 3 for it in a) == list(range(10))
    assert a != workloads.stratified_pass(ranked, 10, seed=5)


def test_rank_pool_groups_by_events_then_orders_by_outcome():
    pool = [("p", 0.1, i) for i in range(32)]
    events = {k: k[2] for k in pool}  # run i popped i events
    expected = {k: (k[2], 0, True, float(100 - k[2]), 1, 0, 0.0) for k in pool}
    ranked = workloads.rank_pool(pool, events, expected, pass_runs=16)
    # two groups of 16 runs by event count, each in rising resolution time
    assert [k[2] for k in ranked] == list(range(15, -1, -1)) + list(range(31, 15, -1))


def test_sweep_argv_covers_the_same_points_for_every_seed():
    for seed in (1, 2, 3):
        argv, runs = workloads.sweep_argv(seed, "out")
        values = argv[argv.index("--values") + 1].split(",")
        assert sorted(float(v) for v in values) == list(workloads.SWEEP_TAUS)
        assert workloads.SWEEP_RUNS[0] <= runs <= workloads.SWEEP_RUNS[1]


def test_benchmark_json_matches_the_metrics_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    whys = [w.why for w in workloads.SERIAL] + [workloads.SWEEP_WHY]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == list(zip(workloads.NAMES, whys))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
