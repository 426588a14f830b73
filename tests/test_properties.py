"""Run-level invariants over generated small scenarios, read back from `trace=` lists."""

import math
import os
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from locatesim.experiments import (POLL_PERIOD_S, PROTOCOLS, SOURCE_ID, THREADS_ENV,
                                   ScenarioConfig, run_batches, run_once)
from locatesim.kernel import FREEZE_POLL, EventQueue, RandomStream
from locatesim.protocol import (ACCEPT, ACCEPTING, DTN_ACTIVE, DTN_FROZEN, E_REQ, FORWARDING,
                                SET_TIMER, SOLVED, START_POLL, UNAWARE, FloodingBehavior,
                                LocateBehavior, ProtocolParams)
from locatesim.radio import (INTERFERENCE_COLLISION, INTERFERENCE_NONE, SMOOTH, UNIT_DISK,
                             RadioProfile, lora_profile)
from locatesim.world import SPEED_MAX, Role, World, distance

import reference_runner
from topologies import static_world

DEFAULTS = ProtocolParams()


def scenarios(protocols, n, tau, horizon_s, side_m, ttl_init=st.just(DEFAULTS.ttl_init),
              dtn_dist_m=st.just(DEFAULTS.dtn_dist_m)):
    """One-run configs of `protocols` over LoRa with either loss model, collisions on or
    off; the other settings are the defaults."""
    return st.builds(
        lambda n, tau, protocol, pdr_model, interference, ttl_init, dtn_dist_m, horizon_s,
        side_m, seed:
            ScenarioConfig(n=n, tau=tau, protocol=protocol, side_m=side_m, runs=1,
                           base_seed=seed, horizon_s=horizon_s,
                           radio=lora_profile(pdr_model=pdr_model, interference=interference),
                           params=ProtocolParams(ttl_init=ttl_init, dtn_dist_m=dtn_dist_m)),
        n=n, tau=tau, protocol=st.sampled_from(protocols),
        pdr_model=st.sampled_from((UNIT_DISK, SMOOTH)),
        interference=st.sampled_from((INTERFERENCE_NONE, INTERFERENCE_COLLISION)),
        ttl_init=ttl_init, dtn_dist_m=dtn_dist_m, horizon_s=horizon_s, side_m=side_m,
        seed=st.integers(0, 2**31 - 1))


configs = scenarios(PROTOCOLS, n=st.integers(1, 12), tau=st.floats(0.0, 1.0),
                    ttl_init=st.integers(0, 3), horizon_s=st.floats(1.0, 3600.0),
                    side_m=st.floats(200.0, 3000.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(configs)
def test_trace_invariants(config):
    """Over generated small scenarios (any protocol, both loss models, collisions on and
    off), read back from the `trace=` list: SOLVED is never left, awareness is one-way,
    every transmitted hop budget stays within `ttl_init`, and a run ends exactly when every
    aware node is solved, or at the horizon."""
    trace: list = []
    result = run_once(config, 0, trace=trace)
    aware = {SOURCE_ID}
    phase: dict[int, int] = {}
    settled_at = None  # first prefix at which every aware node is SOLVED
    source_solved_at = None
    requests = replies = 0
    for rec in trace:
        tag, t, node = rec[:3]
        if tag == "aware":
            # awareness is one-way: a node becomes aware once, and the source always is
            assert node not in aware, f"node {node} became aware again at {t}"
            aware.add(node)
        elif tag == "phase":
            assert phase.get(node) != SOLVED, f"node {node} left SOLVED at {t}"
            phase[node] = rec[3]
            if node == SOURCE_ID and rec[3] == SOLVED:
                source_solved_at = t
        else:
            kind, ttl = rec[3:]
            assert 0 <= ttl <= config.params.ttl_init
            if kind == E_REQ:
                requests += 1
            else:
                replies += 1
        if settled_at is None and all(phase.get(a) == SOLVED for a in aware):
            settled_at = t
            assert rec is trace[-1], "the run went on after every aware node was solved"
    assert result.end_time_s == (config.horizon_s if settled_at is None else settled_at)
    assert result.ert_s == source_solved_at
    assert (result.ereq_count, result.erep_count) == (requests, replies)


# the legal phase edges of a non-source node, per protocol
_LOCATE_EDGES = {UNAWARE: {ACCEPTING, SOLVED}, ACCEPTING: {FORWARDING, DTN_ACTIVE, SOLVED},
                 FORWARDING: {DTN_ACTIVE, SOLVED}, DTN_ACTIVE: {DTN_FROZEN, SOLVED},
                 DTN_FROZEN: {DTN_ACTIVE, SOLVED}}
_BASELINE_EDGES = {UNAWARE: {ACCEPTING, SOLVED}, ACCEPTING: {SOLVED}}
EDGES = {"locate": _LOCATE_EDGES,
         "locate-basic": {UNAWARE: {ACCEPTING, SOLVED},
                          ACCEPTING: {FORWARDING, DTN_ACTIVE, SOLVED},
                          FORWARDING: {DTN_ACTIVE, SOLVED}, DTN_ACTIVE: {SOLVED}},
         "flooding": _BASELINE_EDGES, "probabilistic": _BASELINE_EDGES}
# the source's DTN_ACTIVE from start_emergency is logged at its first handled event, which
# may already be the reply that solves it
SOURCE_EDGES = {UNAWARE: {DTN_ACTIVE, SOLVED}, DTN_ACTIVE: {SOLVED}}
# the phases a non-source node sends a request from; a reply is sent from ACCEPTING (a
# solver's own) or SOLVED
REQUEST_PHASES = {"locate": {FORWARDING, DTN_ACTIVE}, "locate-basic": {FORWARDING, DTN_ACTIVE},
                  "flooding": {ACCEPTING}, "probabilistic": {ACCEPTING}}
REPLY_PHASES = {ACCEPTING, SOLVED}

statechart_configs = scenarios(PROTOCOLS, n=st.integers(1, 25), tau=st.floats(0.0, 1.0),
                               ttl_init=st.integers(0, 4), dtn_dist_m=st.floats(5.0, 300.0),
                               horizon_s=st.floats(1.0, 3600.0),
                               side_m=st.floats(300.0, 3000.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(statechart_configs)
# carriers solved from FORWARDING, DTN_ACTIVE and DTN_FROZEN, edges the generated examples
# do not take
@example(ScenarioConfig(n=20, tau=0.06205770005378497, side_m=964.101464471804, runs=1,
                        base_seed=1307113071, horizon_s=6056.793960267225,
                        radio=lora_profile(pdr_model=SMOOTH),
                        params=ProtocolParams(ttl_init=2, dtn_dist_m=7.763138164644399)))
@example(ScenarioConfig(n=7, tau=0.12732783327633335, protocol="locate-basic",
                        side_m=1053.4792370547216, runs=1, base_seed=302282366,
                        horizon_s=1197.0708864025016,
                        params=ProtocolParams(ttl_init=4, dtn_dist_m=63.60150399212603)))
def test_trace_follows_the_statechart(config):
    """Every logged phase change is a legal edge, and every transmission is sent from a
    phase that may send it: its node's last logged phase, since a phase is logged after
    its handler's actions. Every relay spends a hop, so only the source sends a full
    budget, and a baseline relay sends at most one request."""
    trace: list = []
    run_once(config, 0, trace=trace)
    protocol = config.protocol
    ttl_init = config.params.ttl_init
    phase: dict[int, int] = {}
    requests: dict[int, int] = {}
    for rec in trace:
        tag, t, node = rec[:3]
        now = phase.get(node, UNAWARE)
        if tag == "phase":
            edges = SOURCE_EDGES if node == SOURCE_ID else EDGES[protocol]
            assert rec[3] in edges.get(now, ()), f"node {node}: {now} -> {rec[3]} at {t}"
            phase[node] = rec[3]
        elif tag == "tx":
            kind, ttl = rec[3:]
            if node == SOURCE_ID:  # beacons, logged DTN_ACTIVE only at its first handler
                assert (kind, ttl) == (E_REQ, ttl_init) and now != SOLVED, (rec, now)
                continue
            assert 0 <= ttl < ttl_init, rec
            if kind == E_REQ:
                assert now in REQUEST_PHASES[protocol], f"node {node} sent a request from {now}"
                requests[node] = requests.get(node, 0) + 1
            else:
                assert now in REPLY_PHASES, f"node {node} sent a reply from {now}"
    if protocol in ("flooding", "probabilistic"):
        assert all(count == 1 for count in requests.values()), requests


flooding_configs = scenarios(("flooding", "probabilistic"), n=st.integers(0, 60),
                             tau=st.floats(0.0, 1.0), horizon_s=st.floats(1.0, 1800.0),
                             side_m=st.floats(300.0, 5000.0))


# hop budgets of 0-3 spend carriers early, so most runs pop spent carry ticks
locate_configs = scenarios(("locate", "locate-basic"), n=st.integers(0, 20),
                           tau=st.floats(0.0, 1.0), ttl_init=st.integers(0, 3),
                           horizon_s=st.floats(1.0, 3600.0), side_m=st.floats(300.0, 5000.0))


# solvers, 1-2 hop budgets and mid-size arenas: the source is often solved while carriers
# that never hear the reply are spent, so about one run in five goes quiet before the horizon
settling_configs = scenarios(("locate", "locate-basic"), n=st.integers(5, 20),
                             tau=st.floats(0.05, 0.4), ttl_init=st.integers(1, 2),
                             horizon_s=st.floats(1200.0, 3600.0),
                             side_m=st.floats(1000.0, 2500.0))


# dense arenas and long hop budgets: carriers freeze and solved nodes relay replies
carry_configs = scenarios(("locate", "locate-basic"), n=st.integers(2, 25),
                          tau=st.floats(0.0, 0.5), ttl_init=st.integers(0, 16),
                          dtn_dist_m=st.floats(5.0, 200.0), horizon_s=st.floats(600.0, 3600.0),
                          side_m=st.floats(300.0, 2000.0))


# the baselines' solved relays answer requests with their cached reply, once per coin
reply_configs = scenarios(("flooding", "probabilistic"), n=st.integers(2, 25),
                          tau=st.floats(0.0, 0.5), ttl_init=st.integers(0, 16),
                          horizon_s=st.floats(600.0, 3600.0), side_m=st.floats(300.0, 2000.0))


# relays solved after their relay decision hear later requests and answer them with their
# cached reply; no generated example reaches that skip rule, so the flooding run is pinned
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(configs, statechart_configs, flooding_configs, locate_configs, settling_configs,
                 carry_configs, reply_configs))
@example(ScenarioConfig(n=30, tau=0.25, protocol="probabilistic", side_m=936.0, runs=1,
                        base_seed=1838, horizon_s=3.0))
def test_run_once_agrees_with_the_reference_runner(config):
    """`run_once` and `tests/reference_runner.py`, which has none of its shortcuts, give the
    same `RunResult` and the same `trace=` list up to the order of same-time entries;
    past the shipped run's quiescent exit the reference logs only phase entries."""
    reference_runner.compare(config)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(locate_configs, settling_configs))
# two carriers with no hop budget left freeze, so the run goes quiet at 134.8 s; the
# reference logs their thaws at 154.8 s and 168.8 s and runs on to the horizon
@example(ScenarioConfig(n=8, tau=0.15679618517064975, side_m=1057.870888087286, runs=1,
                        base_seed=1094722295, horizon_s=2102.5939863108006,
                        radio=lora_profile(pdr_model=SMOOTH, interference=INTERFERENCE_COLLISION),
                        params=ProtocolParams(ttl_init=2)))
def test_short_spent_carry_ticks_change_no_run(config):
    """Re-arming a spent carrier's tick through `carry_tick` alone, and the quiescent
    exit, give what the reference gives, which hands every timer to `on_timer` and runs on
    to resolution or the horizon: the reference property over the carrier configs."""
    reference_runner.compare(config)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(flooding_configs, locate_configs))
# a relayed copy reaches the source before its first beacon timer, so the skipped copy
# logs the source's phase entry: run 2 of the trace digest's flooding n=40 at base seed 7
# (7 ^ 2 = 5)
@example(ScenarioConfig(n=40, protocol="flooding", runs=1, base_seed=5))
# relays that made their relay decision and were then solved hear later requests, which
# they answer with their cached reply: the skip must hand them those copies
@example(ScenarioConfig(n=30, tau=0.25, protocol="probabilistic", side_m=936.0, runs=1,
                        base_seed=1838, horizon_s=3.0))
def test_skipping_ignored_request_copies_changes_no_run(config):
    """The DELIVERY walk's skip of copies that the behavior's `ignores_request` says
    change nothing gives what the reference gives, which hands every copy to the handler:
    the reference property over the configs with the most request copies."""
    reference_runner.compare(config)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(carry_configs, reply_configs))
# a solved relay answers a request with its cached reply while its reply relay is armed;
# were that relay not cancelled, it would pop 0.6 s into the cooldown
@example(ScenarioConfig(n=8, tau=0.125, side_m=1207.0, runs=1, base_seed=846, horizon_s=600.0,
                        params=ProtocolParams(ttl_init=3, dtn_dist_m=5.0)))
def test_dtn_entry_freeze_and_reply_relay_invariants(config):
    """What the behaviors rely on instead of testing it: a node enters DTN with no
    carrier overheard, since it enters once; a delivery freezes a carrier before its
    live DTN timer pops; a reply relay pops outside the reply cooldown; and after every
    handler call, the own-reply budget is -1 unless ACCEPT is armed, and every solved
    node but the source has a cached reply."""
    def checked(name, holds):
        method = getattr(LocateBehavior, name)

        def wrapper(self, st, t, *rest):
            assert holds(self, st, t), (name, config, st, t)
            return method(self, st, t, *rest)
        return mock.patch.object(LocateBehavior, name, wrapper)

    def handled(cls, name):
        method = getattr(cls, name)

        def wrapper(self, st, *rest):
            acts = method(self, st, *rest)
            assert ACCEPT in st.live or st.pending_reply_ttl == -1, (name, config, st)
            assert st.phase != SOLVED or st.is_source or st.cached_rep is not None, \
                (name, config, st)
            return acts
        return mock.patch.object(cls, name, wrapper)

    with ExitStack() as stack:
        for cls in (LocateBehavior, FloodingBehavior):
            for name in ("on_delivery", "on_timer", "on_freeze_poll"):
                stack.enter_context(handled(cls, name))
        stack.enter_context(checked("_enter_dtn", lambda self, st, t: not st.overheard))
        stack.enter_context(checked("_freeze", lambda self, st, t: st.dtn_fire_at >= t))
        stack.enter_context(checked("_fire_forward", lambda self, st, t: st.phase == FORWARDING
                                    or t - st.erep_sent_at >= self.params.cw_max_s))
        run_once(config, 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(carry_configs, reply_configs))
def test_handlers_arm_no_timer_before_the_clock(config):
    """The law `EventQueue.schedule`'s clock check guards, at its sources: every SET_TIMER
    delay a handler returns and every period `carry_tick` draws is finite and at least 0,
    and every START_POLL carries metres in [0, dtn_dist]."""
    def lawful(acts):
        for act in acts:
            if act[0] == SET_TIMER:
                assert math.isfinite(act[2]) and act[2] >= 0.0, (act, config)
            elif act[0] == START_POLL:
                assert 0.0 <= act[1] <= config.params.dtn_dist_m, (act, config)
        return acts

    def checked(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args):
            return lawful(method(self, *args))
        return mock.patch.object(cls, name, wrapper)

    carry_tick = LocateBehavior.carry_tick

    def checked_tick(self, st, t, stream):
        coin, period = carry_tick(self, st, t, stream)
        assert math.isfinite(period) and period >= 0.0, (period, config)
        return coin, period

    with ExitStack() as stack:
        for cls in (LocateBehavior, FloodingBehavior):
            for name in ("start_emergency", "on_delivery", "on_timer", "on_freeze_poll"):
                stack.enter_context(checked(cls, name))
        stack.enter_context(mock.patch.object(LocateBehavior, "carry_tick", checked_tick))
        run_once(config, 0)


extreme = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)  # subnormals too
probability = st.floats(0.0, 1.0, exclude_min=True)
# contention windows per horizon: up to 1e3, which tier-1 can afford, or well past the 1e6
# floor (just past it, rounding in horizon / windows can still be accepted)
windows_per_horizon = st.one_of(st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
                                st.floats(min_value=1e7, max_value=1e300))


def positive(lo, hi):
    """A positive float: three times in four from [lo, hi], else from anywhere up to the
    largest finite float, so that most runs reach other nodes."""
    return st.integers(0, 3).flatmap(lambda k: extreme if k == 3 else st.floats(lo, hi))


@st.composite
def any_scenario(draw):
    """The fields of any scenario, extreme finite floats included, as (scenario, radio,
    params, windows): horizons up to an hour, or one time in four from an hour to the
    1e6 s floor for 1 to 3 nodes in arenas of at least 1 km so leg ends stay few, and
    cw_max = horizon / windows. A long horizon draws up to 1e3 windows, which the floor
    accepts, so its run is simulated; short ones also draw windows past the floor. One
    long horizon in two runs `locate` with range and thaw distance past the arena's
    diagonal: carriers that hear each other freeze for good, and their polls are armed
    past the horizon, which the budget counts as the lattice ticks in between."""
    long = draw(st.integers(0, 3)) == 3
    horizon = draw(st.floats(min_value=3600.0 if long else 0.0,
                             max_value=1e6 * POLL_PERIOD_S if long else 3600.0, exclude_min=True))
    side = draw(st.floats(1000.0 if horizon > 3600.0 else 1.0, 5000.0))
    never_thaws = long and draw(st.booleans())
    past_diagonal = st.floats(1.5 * side, 1e300)
    windows = draw(st.floats(1.0, 1e3) if long else windows_per_horizon)
    cw_max = horizon / windows
    radio = dict(range_m=draw(past_diagonal if never_thaws else positive(50.0, 2000.0)),
                 airtime_s=draw(positive(0.01, 2.0)),
                 beta=draw(positive(0.5, 8.0)),
                 pdr_model=draw(st.sampled_from((UNIT_DISK, SMOOTH))),
                 interference=draw(st.sampled_from((INTERFERENCE_NONE,
                                                    INTERFERENCE_COLLISION))))
    params = dict(cw_min_s=cw_max * draw(st.floats(0.0, 1.0, exclude_max=True)),
                  cw_max_s=cw_max, gamma_per_m=draw(positive(1e-4, 0.1)),
                  radius_m=draw(positive(10.0, 2000.0)),
                  dtn_dist_m=draw(past_diagonal if never_thaws else positive(1.0, 200.0)),
                  p_start=draw(probability), q_flood=draw(probability),
                  ttl_init=draw(st.integers(0, 16)), e_thr_s=draw(positive(1.0, 3600.0)))
    scenario = dict(n=draw(st.integers(2 if never_thaws else 1 if long else 0, 3 if long else 8)),
                    tau=draw(st.floats(0.0, 1.0)),
                    protocol="locate" if never_thaws else draw(st.sampled_from(PROTOCOLS)),
                    side_m=side,
                    base_seed=draw(st.integers(0, 2**31 - 1)), horizon_s=horizon)
    return scenario, radio, params, windows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_scenario())
# the source beacons in a 1e-300 s window, below the clock's resolution at 10 s
@example(({"n": 0, "tau": 0.0, "protocol": "locate", "side_m": 5000.0, "base_seed": 1,
           "horizon_s": 10.0}, {}, {"cw_min_s": 0.0, "cw_max_s": 1e-300}, 1e301))
# a window of the least positive float, which the horizon floor accepts: every period drawn
# from it rounds to 0, so the source would beacon at t = 0 forever
@example(({"n": 0, "tau": 0.0, "protocol": "locate", "side_m": 1.0, "base_seed": 0,
           "horizon_s": 5e-324}, {}, {"cw_min_s": 0.0, "cw_max_s": 5e-324}, 1.0))
# gamma * d and d / radius overflow together in every contention window
@example(({"n": 10, "tau": 0.5, "protocol": "locate", "side_m": 500.0, "base_seed": 1,
           "horizon_s": 600.0}, {}, {"gamma_per_m": 1e308, "radius_m": 1e-307}, 30.0))
# two carriers hear each other and the source and freeze for good, so their polls are
# armed past the horizon, counted as the lattice ticks up to it: the 1e6 s floor, and ten
# times it
@example(({"n": 2, "tau": 0.0, "protocol": "locate", "side_m": 1000.0, "base_seed": 1,
           "horizon_s": 1e6}, {"range_m": 2000.0},
          {"cw_min_s": 500.0, "cw_max_s": 1e3, "dtn_dist_m": 1e300}, 1e3))
@example(({"n": 2, "tau": 0.0, "protocol": "locate", "side_m": 1000.0, "base_seed": 1,
           "horizon_s": 1e7}, {"range_m": 2000.0},
          {"cw_min_s": 5e3, "cw_max_s": 1e4, "dtn_dist_m": 1e300}, 1e3))
def test_every_accepted_config_ends_within_an_event_budget(drawn):
    """Every config `ScenarioConfig` accepts ends within a number of popped events and
    poll lattice steps set by its windows per horizon, its leg ends and its 1 s polls.

    Each transmission is popped from a timer, and a request heard by n nodes can arm at
    most n replies, so timers and deliveries stay within a multiple of (n + 1) ** 2 per
    window; the source's beacon period averages at least cw_max / 2. A node walks at
    most SPEED_MAX, and a leg crosses the arena, so its leg ends stay within a multiple
    of horizon * SPEED_MAX / side. A node's START_POLL walks start no earlier than its
    last poll's tick and end by horizon + 1 s, so its polls and the lattice steps they
    walk cover its lattice at most twice. A config past the 1e6-window floor gets the
    budget of 1e3 windows, and one past the 1e6 s horizon floor the lattice of that
    floor: were it accepted, it would exhaust them rather than run for hours.
    """
    scenario, radio, params, windows = drawn
    try:
        config = ScenarioConfig(runs=1, radio=RadioProfile(**radio),
                                params=ProtocolParams(**params), **scenario)
    except ValueError:
        return  # rejected: the CLI exits 2 before simulating
    n = config.n
    horizon = config.horizon_s
    budget = 10 * ((n + 1) ** 2 * (min(windows, 1e3) + 1)
                   + n * (horizon * SPEED_MAX / config.side_m + 1)) \
        + 2 * n * (min(horizon, 1e6 * POLL_PERIOD_S) / POLL_PERIOD_S + 1)
    spent = 0.0

    def count(steps):
        nonlocal spent
        spent += steps
        if spent > budget:
            raise AssertionError(f"{spent:.0f} events and lattice steps, budget {budget:.0f}")

    pop, schedule = EventQueue.pop, EventQueue.schedule

    def counted_pop(queue):
        count(1)
        return pop(queue)

    def counted_schedule(queue, time, kind, node, data=None):
        if kind == FREEZE_POLL:  # the ticks its START_POLL walked to reach time
            count((time - queue.now) / POLL_PERIOD_S)
        return schedule(queue, time, kind, node, data)

    with mock.patch.object(EventQueue, "pop", counted_pop), \
            mock.patch.object(EventQueue, "schedule", counted_schedule):
        result = run_once(config, 0)
    assert result.end_time_s <= horizon


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.floats(10.0, 5000.0), st.integers(0, 2**31 - 1), st.integers(1, 8))
def test_legs_stay_in_the_arena(n, side, seed, legs):
    """Chains of random mobility legs in generated arenas keep every position in
    [0, side]²."""
    stream = RandomStream(seed)
    world = World.random(n, 0.5, side, stream)
    for rec in world.nodes[1:]:
        for _ in range(legs):
            leg = rec.leg
            span = leg.end - leg.start
            for t in [leg.start + span * k / 4.0 for k in range(4)] + [leg.end]:
                x, y = world.position_at(rec.id, t)
                assert 0.0 <= x <= side and 0.0 <= y <= side, (rec.id, t, x, y)
            world.start_leg(rec.id, leg.end, stream)


# a few runs each at horizons up to 10 min, so ten examples cost a few pool start-ups
batch_configs = st.builds(lambda cfg, runs, horizon_s: replace(cfg, runs=runs, horizon_s=horizon_s),
                          configs, st.integers(1, 4), st.floats(1.0, 600.0))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.lists(batch_configs, min_size=2, max_size=4))
def test_pooled_batches_equal_serial(batch):
    """Generated lists of small configs run on one pool give every result and
    aggregate a serial run gives."""
    with mock.patch.dict(os.environ, {THREADS_ENV: "2"}):
        pooled = run_batches(batch)
    with mock.patch.dict(os.environ, {THREADS_ENV: "1"}):
        serial = run_batches(batch)
    assert pooled == serial


# distinct spots, so no solver stands on a transmitter and replies with zero delay
# at the very instant a copy lands (see the collision rule in run_once for that tie)
coordinate = st.integers(0, 1000).map(float)
collision_worlds = st.lists(
    st.tuples(coordinate, coordinate, st.sampled_from((Role.SOLVER, Role.RELAY))),
    min_size=2, max_size=5, unique_by=lambda spot: spot[:2])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(collision_worlds, st.sampled_from(PROTOCOLS), st.integers(0, 4), st.floats(0.4, 12.0),
       st.integers(0, 2**31 - 1))
def test_awareness_comes_from_the_first_copy_no_other_frame_overlaps(
        spots, protocol, ttl_init, airtime, seed):
    """Collisions end to end: from the `tx` entries alone, a node becomes aware when the
    first request copy that no other frame it hears overlaps lands, and never without one."""
    world = static_world(1000.0, spots)
    radio = lora_profile(airtime_s=airtime, interference=INTERFERENCE_COLLISION)
    config = ScenarioConfig(n=len(spots), protocol=protocol, side_m=1000.0, runs=1,
                            base_seed=seed, horizon_s=3600.0, radio=radio,
                            params=ProtocolParams(ttl_init=ttl_init))
    trace: list = []
    end = run_once(config, 0, world=world, trace=trace).end_time_s
    sent = [(rec[1], rec[2], rec[3]) for rec in trace if rec[0] == "tx"]
    aware = {rec[2]: rec[1] for rec in trace if rec[0] == "aware"}
    for node in range(1, len(spots)):
        heard = [(t, kind) for t, tx, kind in sent
                 if tx != node and distance(spots[tx][:2], spots[node][:2]) <= radio.range_m]
        first = None
        for i, (t, kind) in enumerate(heard):
            if kind == E_REQ and not any(abs(other - t) <= airtime
                                         for j, (other, _) in enumerate(heard) if j != i):
                first = t + airtime
                break
        # a copy landing exactly at the end may or may not be handed over before the stop
        if first is not None and first < end:
            assert aware.get(node) == first, (node, first, aware)
        elif first is None or first > end:
            assert node not in aware, (node, first, aware)
