"""Contention-window formulas and the per-node dissemination state machines."""

import copy
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies

from locatesim import experiments
from locatesim.experiments import ScenarioConfig, run_once
from locatesim.kernel import TIMER, EventQueue, RandomStream
from locatesim.protocol import (ACCEPT, ACCEPTING, CANCEL_TIMER, DTN, DTN_ACTIVE,
                                DTN_FROZEN, E_REP, E_REQ, FORWARD, FORWARDING, GUARD, POLL,
                                SET_TIMER, SOLVED, START_POLL, TRANSMIT,
                                UNAWARE, EmergencyState, FloodingBehavior, LocateBehavior,
                                Message, ProtocolParams, acceptance_window,
                                distance_bias, dtn_forward_probability,
                                forwarding_window, may_transmit)
from locatesim.radio import (INTERFERENCE_COLLISION, INTERFERENCE_NONE, SMOOTH, UNIT_DISK,
                             lora_profile)

P = ProtocolParams()

# hand-derived references for the default parameters
BIAS_500 = 1.25
ACC_500 = 14.269904062796198
FWD_500 = 5.730095937203802
ACC_1000 = 16.222487943248763
FWD_1000 = 3.7775120567512368
PDTN_04_1 = 0.6324555320336759
PDTN_04_2 = 0.7368062997280773

REL = 1e-12


# -- closed forms -------------------------------------------------------------

def test_distance_bias_reference_points():
    assert distance_bias(0.0, P.gamma_per_m, P.radius_m) == 0.0
    assert distance_bias(500.0, P.gamma_per_m, P.radius_m) == pytest.approx(BIAS_500, rel=REL)
    assert distance_bias(1000.0, P.gamma_per_m, P.radius_m) == pytest.approx(5.0 / 3.0, rel=REL)
    with pytest.raises(ValueError):
        distance_bias(-1.0, P.gamma_per_m, P.radius_m)


def test_distance_bias_saturates_where_both_terms_overflow():
    # gamma * d and d / radius both overflow to inf; the bias is then gamma * radius
    assert distance_bias(100.0, 1e308, 1e-307) == 1e308 * 1e-307
    params = ProtocolParams(gamma_per_m=1e308, radius_m=1e-307)
    assert 0.0 < acceptance_window(100.0, params) < params.cw_max_s
    assert 0.0 < forwarding_window(100.0, params) < params.cw_max_s


def test_window_reference_points():
    assert acceptance_window(0.0, P) == 0.0
    assert forwarding_window(0.0, P) == P.cw_max_s
    assert acceptance_window(500.0, P) == pytest.approx(ACC_500, rel=REL)
    assert forwarding_window(500.0, P) == pytest.approx(FWD_500, rel=REL)
    assert acceptance_window(1000.0, P) == pytest.approx(ACC_1000, rel=REL)
    assert forwarding_window(1000.0, P) == pytest.approx(FWD_1000, rel=REL)


def test_windows_complement_to_cw_max():
    for i in range(1001):
        d = 10000.0 * i / 1000.0
        total = acceptance_window(d, P) + forwarding_window(d, P)
        assert total == pytest.approx(P.cw_max_s, rel=1e-9)


def test_window_monotonicity():
    prev_acc, prev_fwd = -math.inf, math.inf
    for i in range(1001):
        d = 10000.0 * i / 1000.0
        acc, fwd = acceptance_window(d, P), forwarding_window(d, P)
        assert acc >= prev_acc - 1e-12
        assert fwd <= prev_fwd + 1e-12
        prev_acc, prev_fwd = acc, fwd


def test_closest_solver_usually_fires_first():
    # expectation property: over many draws the closer contender wins most trials
    stream = RandomStream(17)
    near, far = acceptance_window(200.0, P), acceptance_window(600.0, P)
    wins = sum(stream.uniform(0.0, near) < stream.uniform(0.0, far) for _ in range(10000))
    assert wins > 5000


def test_dtn_forward_probability():
    assert dtn_forward_probability(0.4, 0) == 0.4
    assert dtn_forward_probability(0.4, 1) == pytest.approx(PDTN_04_1, rel=REL)
    assert dtn_forward_probability(0.4, 2) == pytest.approx(PDTN_04_2, rel=REL)
    assert dtn_forward_probability(1.0, 5) == 1.0
    prev = 0.0
    for heard in range(30):
        cur = dtn_forward_probability(0.4, heard)
        assert prev < cur <= 1.0
        prev = cur
    with pytest.raises(ValueError):
        dtn_forward_probability(0.0, 1)
    with pytest.raises(ValueError):
        dtn_forward_probability(0.4, -1)


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(cw_min_s=20.0, cw_max_s=20.0)
    # every period drawn below the least positive float rounds to 0; two of it can be drawn
    with pytest.raises(ValueError, match="least positive float"):
        ProtocolParams(cw_min_s=0.0, cw_max_s=5e-324)
    ProtocolParams(cw_min_s=0.0, cw_max_s=1e-323)
    with pytest.raises(ValueError):
        ProtocolParams(gamma_per_m=0.0)
    with pytest.raises(ValueError):
        ProtocolParams(p_start=0.0)
    with pytest.raises(ValueError):
        ProtocolParams(ttl_init=-1)
    with pytest.raises(ValueError):
        ProtocolParams(e_thr_s=0.0)
    for q in (0.0, 1.5):  # the probabilistic baseline's relay coin
        with pytest.raises(ValueError, match="q_flood"):
            ProtocolParams(q_flood=q)
    for field in ("cw_max_s", "gamma_per_m", "radius_m", "dtn_dist_m", "e_thr_s"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                ProtocolParams(**{field: bad})


# -- helpers for handler tests -------------------------------------------------

ORIGIN = (2500.0, 2500.0)


def req(tx=0, ttl=16, tx_pos=ORIGIN):
    return Message(E_REQ, tx, tx_pos, ttl)


def rep(tx=5, ttl=15, tx_pos=ORIGIN):
    return Message(E_REP, tx, tx_pos, ttl)


def timer_delays(acts):
    return {a[1]: a[2] for a in acts if a[0] == SET_TIMER}


def sent(acts):
    return [a[1] for a in acts if a[0] == TRANSMIT]


def ops(acts):
    return [a[0] for a in acts]


def source_state():
    return EmergencyState(0, False, True)


def relay_state(node=1):
    return EmergencyState(node, False, False)


def solver_state(node=2):
    return EmergencyState(node, True, False)


def locate():
    return LocateBehavior(P, dtn_optimized=True)


def basic():
    return LocateBehavior(P, dtn_optimized=False)


# -- source -------------------------------------------------------------------

def test_source_start_transmits_and_arms_beacon():
    b = locate()
    st = source_state()
    acts = b.start_emergency(st, 0.0, ORIGIN, RandomStream(1))
    (msg,) = sent(acts)
    assert (msg.kind, msg.ttl, msg.tx, msg.tx_pos) == (E_REQ, P.ttl_init, 0, ORIGIN)
    assert st.phase == DTN_ACTIVE
    delay = timer_delays(acts)[DTN]
    assert P.cw_min_s <= delay < P.cw_max_s


def test_source_beacon_reissues_full_ttl():
    b = locate()
    st = source_state()
    b.start_emergency(st, 0.0, ORIGIN, RandomStream(1))
    acts = b.on_timer(st, DTN, 12.0, ORIGIN, RandomStream(2))
    (msg,) = sent(acts)
    assert msg.ttl == P.ttl_init
    assert DTN in timer_delays(acts)


def test_source_ignores_requests_and_stops_on_first_reply():
    b = locate()
    st = source_state()
    b.start_emergency(st, 0.0, ORIGIN, RandomStream(1))
    assert b.on_delivery(st, req(tx=3), 5.0, ORIGIN, RandomStream(2)) == []
    acts = b.on_delivery(st, rep(), 6.0, ORIGIN, RandomStream(2))
    assert (CANCEL_TIMER, DTN) in [(a[0], a[1]) for a in acts if a[0] == CANCEL_TIMER]
    assert st.phase == SOLVED


def test_timer_registry_holds_the_runner_handle():
    b = locate()
    st = source_state()
    b.start_emergency(st, 0.0, ORIGIN, RandomStream(1))
    with pytest.raises(RuntimeError, match="already armed"):
        b.start_emergency(st, 0.0, ORIGIN, RandomStream(1))
    handle = object()
    st.live[DTN] = handle  # what the runner stores when it arms the timer
    acts = b.on_delivery(st, rep(), 6.0, ORIGIN, RandomStream(2))
    assert (CANCEL_TIMER, DTN, handle) in acts
    assert st.live == {}
    assert b.on_delivery(st, rep(), 7.0, ORIGIN, RandomStream(2)) == []


# -- request handling ----------------------------------------------------------

def test_unaware_relay_holds_one_guard_window():
    b = locate()
    st = relay_state()
    acts = b.on_delivery(st, req(), 0.4, (2900.0, 2500.0), RandomStream(3))
    assert st.phase == ACCEPTING
    assert sent(acts) == []
    assert timer_delays(acts) == {GUARD: P.cw_max_s}


def test_unaware_solver_contends_to_reply():
    b = locate()
    st = solver_state()
    pos = (2900.0, 2500.0)  # 400 m from the transmitter
    acts = b.on_delivery(st, req(), 0.4, pos, RandomStream(3))
    assert st.phase == ACCEPTING
    (slot, delay), = timer_delays(acts).items()  # a solver contends through ACCEPT alone
    assert slot == ACCEPT
    assert 0.0 <= delay < acceptance_window(400.0, P)
    assert st.pending_reply_ttl == 15


def test_solver_reply_fire_marks_solved():
    b = locate()
    st = solver_state()
    pos = (2900.0, 2500.0)
    b.on_delivery(st, req(), 0.4, pos, RandomStream(3))
    acts = b.on_timer(st, ACCEPT, 5.0, pos, RandomStream(4))
    (msg,) = sent(acts)
    assert (msg.kind, msg.tx, msg.ttl) == (E_REP, st.node, 15)
    assert st.phase == SOLVED
    assert st.cached_rep == msg


def test_solver_rearms_for_each_new_request():
    b = locate()
    st = solver_state()
    pos = (2900.0, 2500.0)
    b.on_delivery(st, req(), 0.4, pos, RandomStream(3))
    # a second request while the reply is pending does not double-arm
    acts = b.on_delivery(st, req(tx=7, ttl=12), 1.0, pos, RandomStream(4))
    assert ACCEPT not in timer_delays(acts)
    b.on_timer(st, ACCEPT, 5.0, pos, RandomStream(5))
    # solved solvers still answer later requests with a fresh original reply
    acts = b.on_delivery(st, req(tx=8, ttl=10), 50.0, pos, RandomStream(6))
    assert ACCEPT in timer_delays(acts)
    assert st.pending_reply_ttl == 9
    acts = b.on_timer(st, ACCEPT, 55.0, pos, RandomStream(7))
    (msg,) = sent(acts)
    assert (msg.tx, msg.ttl) == (st.node, 9)


def test_ttl_zero_request_creates_awareness_but_no_reply():
    b = locate()
    st = solver_state()
    acts = b.on_delivery(st, req(ttl=0), 0.4, (2600.0, 2500.0), RandomStream(3))
    assert st.phase == ACCEPTING
    assert acts == []
    assert not may_transmit(st)


def test_relay_guard_expiry_starts_forwarding_contention():
    b = locate()
    st = relay_state()
    pos = (2900.0, 2500.0)
    b.on_delivery(st, req(), 0.4, pos, RandomStream(3))
    acts = b.on_timer(st, GUARD, 20.4, pos, RandomStream(4))
    assert st.phase == FORWARDING
    (slot, delay), = timer_delays(acts).items()
    assert slot == FORWARD
    assert 0.0 <= delay < forwarding_window(400.0, P)


def test_forward_fire_relays_and_enters_carry_phase():
    b = locate()
    st = relay_state()
    pos = (2900.0, 2500.0)
    b.on_delivery(st, req(), 0.4, pos, RandomStream(3))
    b.on_timer(st, GUARD, 20.4, pos, RandomStream(4))
    acts = b.on_timer(st, FORWARD, 24.0, pos, RandomStream(5))
    (msg,) = sent(acts)
    assert (msg.kind, msg.ttl, msg.tx, msg.tx_pos) == (E_REQ, 15, st.node, pos)
    assert st.phase == DTN_ACTIVE
    assert st.stored_req.ttl == 15  # the relay spent one hop of its stored copy
    delays = timer_delays(acts)
    assert P.cw_min_s <= delays[DTN] < P.cw_max_s
    assert (START_POLL, 0.0) in acts  # dormant: polls nothing until the carrier freezes


def test_guard_expiry_with_spent_copy_carries_silently():
    b = locate()
    st = relay_state()
    pos = (2600.0, 2500.0)
    b.on_delivery(st, req(ttl=0), 0.4, pos, RandomStream(3))
    acts = b.on_timer(st, GUARD, 20.4, pos, RandomStream(4))
    assert sent(acts) == []
    assert st.phase == DTN_ACTIVE
    assert DTN in timer_delays(acts)  # the period runs even with nothing to send


def test_forwarding_suppressed_by_overheard_relay():
    b = locate()
    st = relay_state()
    pos = (2900.0, 2500.0)
    b.on_delivery(st, req(), 0.4, pos, RandomStream(3))
    b.on_timer(st, GUARD, 20.4, pos, RandomStream(4))
    acts = b.on_delivery(st, req(tx=9, ttl=15, tx_pos=(3200.0, 2500.0)), 21.0, pos,
                         RandomStream(5))
    cancelled = [a[1] for a in acts if a[0] == CANCEL_TIMER]
    assert FORWARD in cancelled
    assert sent(acts) == []
    assert st.phase == DTN_ACTIVE
    assert st.overheard == set()  # the suppressor itself is not counted


# -- carry phase ---------------------------------------------------------------

def dtn_carrier(b, pos=(2900.0, 2500.0), ttl=16):
    """Relay driven to DtnActive holding a stored copy with the given ttl."""
    st = relay_state()
    b.on_delivery(st, req(ttl=ttl), 0.4, pos, RandomStream(3))
    b.on_timer(st, GUARD, 20.4, pos, RandomStream(4))
    if FORWARD in st.live:
        b.on_timer(st, FORWARD, 24.0, pos, RandomStream(5))
    return st


def test_carrier_rebroadcast_spends_budget():
    b = basic()  # probability 1 keeps the coin out of the way
    st = dtn_carrier(b)
    start_ttl = st.stored_req.ttl
    acts = b.on_timer(st, DTN, 30.0, (2900.0, 2500.0), RandomStream(6))
    (msg,) = sent(acts)
    assert msg.ttl == start_ttl - 1
    assert st.stored_req.ttl == start_ttl - 1
    assert DTN in timer_delays(acts)


def test_spent_carrier_ticks_silently():
    b = basic()
    st = dtn_carrier(b)
    pos = (2900.0, 2500.0)
    fired = 0
    for k in range(st.stored_req.ttl + 5):
        acts = b.on_timer(st, DTN, 30.0 + k, pos, RandomStream(6 + k))
        fired += len(sent(acts))
        assert DTN in timer_delays(acts)  # the period never stops while unsolved
    assert fired == 15  # the forward fire above already spent one of the 16 hops
    assert st.stored_req.ttl == 0


def test_fresher_copy_refreshes_budget():
    b = basic()
    st = dtn_carrier(b)
    pos = (2900.0, 2500.0)
    for k in range(20):
        b.on_timer(st, DTN, 30.0 + k, pos, RandomStream(6 + k))
    assert st.stored_req.ttl == 0
    b.on_delivery(st, req(tx=0, ttl=16), 60.0, pos, RandomStream(30))
    assert st.stored_req.ttl == 16
    acts = b.on_timer(st, DTN, 61.0, pos, RandomStream(31))
    assert sent(acts)[0].ttl == 15


def test_staler_copy_is_ignored():
    b = basic()
    st = dtn_carrier(b)
    held = st.stored_req
    b.on_delivery(st, req(tx=4, ttl=held.ttl - 3), 40.0, (2900.0, 2500.0), RandomStream(8))
    assert st.stored_req is held


def test_optimized_carrier_coin_uses_overheard_count():
    b = locate()
    pos = (2900.0, 2500.0)
    # drive to a known overheard count, then check the fire matches the coin
    hits = 0
    trials = 4000
    for s in range(trials):
        st = dtn_carrier(b, pos=pos)
        st.overheard = {7, 8, 9}
        stream = RandomStream(100000 + s)
        expect = stream.bernoulli(dtn_forward_probability(P.p_start, 3))
        got = sent(b.on_timer(st, DTN, 30.0, pos, RandomStream(100000 + s)))
        assert bool(got) == expect
        hits += bool(got)
    assert hits / trials == pytest.approx(dtn_forward_probability(P.p_start, 3), abs=0.03)


# -- one tick law ---------------------------------------------------------------

def spent_carrier(b, heard):
    """A carrier in DtnActive whose forward fire spent its one hop: only its tick is armed."""
    st = dtn_carrier(b, ttl=1)
    st.overheard = set(range(7, 7 + heard))  # one competitor backs off, a second would freeze
    assert (st.phase, st.stored_req.ttl, list(st.live)) == (DTN_ACTIVE, 0, [DTN])
    return st


@pytest.mark.parametrize("heard", [0, 1])
@pytest.mark.parametrize("make", [locate, basic])
def test_spent_carry_tick_draws_as_the_handler_does(make, heard):
    b = make()
    pos = (2900.0, 2500.0)
    for seed in range(20):
        short, handled = spent_carrier(b, heard), spent_carrier(b, heard)
        short_stream, handled_stream, two_draws = (RandomStream(seed) for _ in range(3))
        coin, period = b.carry_tick(short, 40.0, short_stream)
        acts = b.on_timer(handled, DTN, 40.0, pos, handled_stream)
        assert acts == [(SET_TIMER, DTN, period)]
        assert short.dtn_fire_at == handled.dtn_fire_at == 40.0 + period
        two_draws.uniform(0.0, 1.0)
        two_draws.uniform(0.0, 1.0)
        assert short_stream.uniform(0.0, 1.0) == handled_stream.uniform(0.0, 1.0) \
            == two_draws.uniform(0.0, 1.0)


@pytest.mark.parametrize("make", [locate, basic])
def test_carrier_tick_acts_on_the_carry_tick_draws(make):
    b = make()
    pos = (2900.0, 2500.0)
    coins = 0
    for seed in range(40):
        twin, st = dtn_carrier(b), dtn_carrier(b)
        coin, period = b.carry_tick(twin, 30.0, RandomStream(seed))
        acts = b.on_timer(st, DTN, 30.0, pos, RandomStream(seed))
        relayed = [(TRANSMIT, st.stored_req)] if coin else []
        assert acts == relayed + [(SET_TIMER, DTN, period)]
        assert st.dtn_fire_at == twin.dtn_fire_at
        coins += coin
    assert 0 < coins < 40 if b.dtn_optimized else coins == 40


def test_spent_carry_ticks_skip_the_handler_and_change_no_run(monkeypatch):
    # no solver, so the source beacons to the horizon; a 2-hop budget spends carriers early
    config = ScenarioConfig(n=12, tau=0.0, side_m=2000.0, runs=1, horizon_s=3600.0,
                            params=ProtocolParams(ttl_init=2))
    counts = {}
    on_timer = LocateBehavior.on_timer
    pop = EventQueue.pop

    def counted_on_timer(self, *args):
        counts["handled"] += 1
        return on_timer(self, *args)

    def counted_pop(self):
        event = pop(self)
        counts["timers"] += event.kind == TIMER
        return event

    monkeypatch.setattr(LocateBehavior, "on_timer", counted_on_timer)
    monkeypatch.setattr(EventQueue, "pop", counted_pop)

    def counted_run():
        counts.update(handled=0, timers=0)
        trace = []
        return run_once(config, 0, trace=trace), trace, dict(counts)

    short_run, short_trace, short_counts = counted_run()
    # the never-quiescent twin hands every timer to on_timer
    monkeypatch.setattr(experiments, "may_transmit", lambda st: True)
    full_run, full_trace, full_counts = counted_run()
    assert short_run == full_run
    assert short_trace == full_trace  # the source never goes quiet, so neither run does
    assert short_counts["timers"] == full_counts["timers"] == full_counts["handled"]
    assert short_counts["handled"] < short_counts["timers"] / 2


def test_first_competitor_reschedules_the_period():
    b = locate()
    st = dtn_carrier(b)
    old_fire = st.dtn_fire_at
    acts = b.on_delivery(st, req(tx=7, ttl=14, tx_pos=(3300.0, 2500.0)), 25.0,
                         (2900.0, 2500.0), RandomStream(8))
    assert st.overheard == {7}
    assert st.phase == DTN_ACTIVE
    cancelled = [a[1] for a in acts if a[0] == CANCEL_TIMER]
    assert DTN in cancelled
    delay = timer_delays(acts)[DTN]
    assert P.cw_min_s <= delay < P.cw_max_s
    assert st.dtn_fire_at == 25.0 + delay != old_fire


def test_second_competitor_freezes_the_carrier():
    b = locate()
    st = dtn_carrier(b)
    pos = (2900.0, 2500.0)
    b.on_delivery(st, req(tx=7, ttl=14), 25.0, pos, RandomStream(8))
    fire_at = st.dtn_fire_at
    acts = b.on_delivery(st, req(tx=8, ttl=14), 26.0, pos, RandomStream(9))
    assert st.phase == DTN_FROZEN
    assert st.freeze_pos == pos
    assert st.dtn_remaining_s == pytest.approx(fire_at - 26.0)
    assert (START_POLL, P.dtn_dist_m) in acts  # the whole thaw distance is left
    cancelled = [a[1] for a in acts if a[0] == CANCEL_TIMER]
    assert DTN in cancelled


def test_repeat_transmitter_does_not_refreeze():
    b = locate()
    st = dtn_carrier(b)
    pos = (2900.0, 2500.0)
    b.on_delivery(st, req(tx=7, ttl=14), 25.0, pos, RandomStream(8))
    b.on_delivery(st, req(tx=8, ttl=14), 26.0, pos, RandomStream(9))
    # thaw by displacement
    far = (pos[0] + P.dtn_dist_m, pos[1])
    b.on_freeze_poll(st, 27.0, far, RandomStream(10))
    assert st.phase == DTN_ACTIVE
    # both carriers are already known: hearing them again changes nothing
    acts = b.on_delivery(st, req(tx=7, ttl=13), 28.0, far, RandomStream(11))
    assert st.phase == DTN_ACTIVE
    assert [a for a in acts if a[0] != TRANSMIT] == []
    # a third distinct carrier freezes again
    b.on_delivery(st, req(tx=9, ttl=13), 29.0, far, RandomStream(12))
    assert st.phase == DTN_FROZEN


def test_frozen_carrier_still_listens():
    b = locate()
    st = dtn_carrier(b)
    pos = (2900.0, 2500.0)
    b.on_delivery(st, req(tx=7, ttl=14), 25.0, pos, RandomStream(8))
    b.on_delivery(st, req(tx=8, ttl=14), 26.0, pos, RandomStream(9))
    st.stored_req = st.stored_req._replace(ttl=2)
    acts = b.on_delivery(st, req(tx=9, ttl=16), 27.0, pos, RandomStream(10))
    assert st.phase == DTN_FROZEN
    assert st.overheard == {7, 8, 9}
    assert st.stored_req.ttl == 16  # fresher copies are adopted while frozen
    assert acts == []


def test_freeze_poll_before_threshold_rearms():
    b = locate()
    st = dtn_carrier(b)
    pos = (2900.0, 2500.0)
    b.on_delivery(st, req(tx=7, ttl=14), 25.0, pos, RandomStream(8))
    b.on_delivery(st, req(tx=8, ttl=14), 26.0, pos, RandomStream(9))
    near = (pos[0] + P.dtn_dist_m - 0.1, pos[1])
    acts = b.on_freeze_poll(st, 27.0, near, RandomStream(10))
    assert st.phase == DTN_FROZEN
    assert acts == [(START_POLL, P.dtn_dist_m - (near[0] - pos[0]))]


def test_thaw_resumes_with_residual_delay():
    b = locate()
    st = dtn_carrier(b)
    pos = (2900.0, 2500.0)
    b.on_delivery(st, req(tx=7, ttl=14), 25.0, pos, RandomStream(8))
    fire_at = st.dtn_fire_at
    b.on_delivery(st, req(tx=8, ttl=14), 26.0, pos, RandomStream(9))
    residual = fire_at - 26.0
    far = (pos[0] + P.dtn_dist_m, pos[1])
    acts = b.on_freeze_poll(st, 30.0, far, RandomStream(10))
    assert st.phase == DTN_ACTIVE
    assert st.freeze_pos is None
    assert timer_delays(acts)[DTN] == pytest.approx(residual)


def test_poll_is_dormant_outside_frozen_phase():
    b = locate()
    pos = (2900.0, 2500.0)
    active = dtn_carrier(b)
    # a frozen carrier that a reply then solves has its poll cancelled; one handed to it
    # anyway does nothing
    solved = dtn_carrier(b)
    b.on_delivery(solved, req(tx=7, ttl=14), 25.0, pos, RandomStream(8))
    b.on_delivery(solved, req(tx=8, ttl=14), 26.0, pos, RandomStream(9))
    assert solved.phase == DTN_FROZEN
    b.on_delivery(solved, rep(ttl=14), 27.0, pos, RandomStream(10))
    far = (pos[0] + P.dtn_dist_m, pos[1])
    for st, phase in ((active, DTN_ACTIVE), (solved, SOLVED)):
        assert b.on_freeze_poll(st, 40.0, far, RandomStream(11)) == []
        assert st.phase == phase


def frozen_carrier(b, pos=(2900.0, 2500.0)):
    """A carrier frozen by two distinct competitors, its poll armed as the runner arms it."""
    st = dtn_carrier(b, pos)
    b.on_delivery(st, req(tx=7, ttl=14), 25.0, pos, RandomStream(8))
    b.on_delivery(st, req(tx=8, ttl=14), 26.0, pos, RandomStream(9))
    assert st.phase == DTN_FROZEN and st.live == {}
    st.live[POLL] = object()
    return st


def test_solving_a_frozen_carrier_cancels_its_poll():
    b = locate()
    st = frozen_carrier(b)
    handle = st.live[POLL]
    acts = b.on_delivery(st, rep(ttl=14), 27.0, (2900.0, 2500.0), RandomStream(10))
    assert st.phase == SOLVED
    assert (CANCEL_TIMER, POLL, handle) in acts
    assert POLL not in st.live


def test_freezing_reuses_an_armed_dormant_poll():
    b = locate()
    pos = (2900.0, 2500.0)
    st = dtn_carrier(b, pos)
    # entered the carry phase at 24.0 s: the dormant poll _enter_dtn asked for is due at 25.0 s
    handle = st.live[POLL] = object()
    b.on_delivery(st, req(tx=7, ttl=14), 24.3, pos, RandomStream(8))
    acts = b.on_delivery(st, req(tx=8, ttl=14), 24.6, pos, RandomStream(9))
    assert st.phase == DTN_FROZEN
    assert START_POLL not in ops(acts)
    assert st.live == {POLL: handle}
    # the reused poll pops like any timer: it leaves the registry, then checks the distance
    acts = b.on_freeze_poll(st, 25.0, pos, RandomStream(10))
    assert acts == [(START_POLL, P.dtn_dist_m)]
    assert st.live == {}


def test_may_transmit_table():
    b = locate()
    armed = object()
    source = source_state()
    b.start_emergency(source, 0.0, ORIGIN, RandomStream(1))
    solved_source = source_state()
    b.start_emergency(solved_source, 0.0, ORIGIN, RandomStream(1))
    b.on_delivery(solved_source, rep(), 6.0, ORIGIN, RandomStream(2))
    accepting = relay_state()
    b.on_delivery(accepting, req(), 0.4, ORIGIN, RandomStream(3))
    solved = relay_state()
    b.on_delivery(solved, rep(ttl=0), 0.4, ORIGIN, RandomStream(3))
    unanswering = solver_state()
    b.on_delivery(unanswering, req(ttl=0), 0.4, ORIGIN, RandomStream(3))
    active, spent_active = dtn_carrier(b), dtn_carrier(b, ttl=1)
    frozen, spent_frozen = frozen_carrier(b), frozen_carrier(b)
    spent_frozen.stored_req = spent_frozen.stored_req._replace(ttl=0)
    # a carrier's poll, dormant or not, gives it no budget
    for st in (active, spent_active):
        st.live[POLL] = armed
    cases = [
        ("source beaconing", source, {DTN}, True),
        ("source solved", solved_source, set(), False),
        ("accepting relay", accepting, {GUARD}, True),
        ("active carrier with budget", active, {DTN, POLL}, True),
        ("active carrier spent", spent_active, {DTN, POLL}, False),
        ("frozen carrier with budget", frozen, {POLL}, True),
        ("frozen carrier spent", spent_frozen, {POLL}, False),
        ("solved relay, nothing armed", solved, set(), False),
        ("solver that heard only a ttl-0 copy", unanswering, set(), False),
    ]
    for label, st, slots, expected in cases:
        assert set(st.live) == slots, label
        assert may_transmit(st) is expected, label
    assert spent_active.stored_req.ttl == 0 and spent_active.phase == DTN_ACTIVE
    # a solved node may transmit exactly while a reply relay or cached answer is armed
    solved.live[ACCEPT] = armed
    assert may_transmit(solved)


def test_basic_variant_never_tracks_competitors():
    b = basic()
    st = dtn_carrier(b)
    acts = b.on_delivery(st, req(tx=7, ttl=14), 25.0, (2900.0, 2500.0), RandomStream(8))
    assert st.overheard == set()
    assert st.phase == DTN_ACTIVE
    assert [a for a in acts if a[0] == CANCEL_TIMER] == []


# -- replies -------------------------------------------------------------------

def test_reply_solves_and_relays_once_per_cooldown():
    b = locate()
    st = dtn_carrier(b)
    pos = (2900.0, 2500.0)
    acts = b.on_delivery(st, rep(ttl=14, tx_pos=(3300.0, 2500.0)), 40.0, pos, RandomStream(8))
    assert st.phase == SOLVED
    cancelled = {a[1] for a in acts if a[0] == CANCEL_TIMER}
    assert DTN in cancelled
    (slot, delay), = timer_delays(acts).items()
    assert slot == FORWARD and delay < forwarding_window(400.0, P)
    acts = b.on_timer(st, FORWARD, 41.0, pos, RandomStream(9))
    (msg,) = sent(acts)
    assert (msg.kind, msg.ttl, msg.tx) == (E_REP, 13, st.node)
    # a second reply inside the cooldown window is not relayed again
    acts = b.on_delivery(st, rep(ttl=14), 45.0, pos, RandomStream(10))
    assert timer_delays(acts) == {}
    # but one after the window is
    acts = b.on_delivery(st, rep(ttl=14), 41.0 + P.cw_max_s, pos, RandomStream(11))
    assert FORWARD in timer_delays(acts)


def test_reply_cancels_pending_own_answer():
    b = locate()
    st = solver_state()
    pos = (2900.0, 2500.0)
    b.on_delivery(st, req(), 0.4, pos, RandomStream(3))
    assert ACCEPT in st.live
    acts = b.on_delivery(st, rep(ttl=0), 3.0, pos, RandomStream(4))
    cancelled = {a[1] for a in acts if a[0] == CANCEL_TIMER}
    assert ACCEPT in cancelled
    assert st.pending_reply_ttl == -1
    assert st.phase == SOLVED


def test_spent_reply_is_cached_but_not_relayed():
    b = locate()
    st = relay_state()
    acts = b.on_delivery(st, rep(ttl=0), 10.0, (2900.0, 2500.0), RandomStream(3))
    assert st.phase == SOLVED
    assert st.cached_rep.ttl == 0
    assert timer_delays(acts) == {}


def test_solved_node_answers_requests_from_cache():
    b = locate()
    st = relay_state()
    pos = (2900.0, 2500.0)
    b.on_delivery(st, rep(ttl=14), 10.0, pos, RandomStream(3))
    b.on_timer(st, FORWARD, 12.0, pos, RandomStream(4))  # reply relay happens first
    acts = b.on_delivery(st, req(tx=3, ttl=8, tx_pos=(3300.0, 2500.0)), 30.0, pos,
                         RandomStream(5))
    (slot, delay), = timer_delays(acts).items()
    assert slot == ACCEPT and delay < acceptance_window(400.0, P)
    acts = b.on_timer(st, ACCEPT, 31.0, pos, RandomStream(6))
    (msg,) = sent(acts)
    assert (msg.kind, msg.tx, msg.ttl) == (E_REP, st.node, 13)
    # cached answers are demand-driven: a fresh request re-arms immediately
    acts = b.on_delivery(st, req(tx=4, ttl=8), 32.0, pos, RandomStream(7))
    assert ACCEPT in timer_delays(acts)


@pytest.mark.parametrize("make", [relay_state, solver_state], ids=["cached", "own"])
def test_answering_through_accept_cancels_the_armed_reply_relay(make):
    # the reply's FORWARD would pop inside the cooldown the answer stamps, and send nothing
    b = locate()
    st = make()
    pos = (2900.0, 2500.0)
    acts = b.on_delivery(st, rep(ttl=14, tx_pos=(3300.0, 2500.0)), 10.0, pos, RandomStream(3))
    assert FORWARD in timer_delays(acts)
    handle = object()
    st.live[FORWARD] = handle  # what the runner stores when it arms the timer
    acts = b.on_delivery(st, req(tx=3, ttl=8), 10.5, pos, RandomStream(4))
    assert ACCEPT in timer_delays(acts)
    acts = b.on_timer(st, ACCEPT, 11.0, pos, RandomStream(5))
    (msg,) = sent(acts)
    assert msg.kind == E_REP and st.erep_sent_at == 11.0
    assert (CANCEL_TIMER, FORWARD, handle) in acts
    assert st.live == {}
    assert not may_transmit(st)


def test_solved_is_absorbing_for_request_rebroadcast():
    b = locate()
    st = dtn_carrier(b)
    pos = (2900.0, 2500.0)
    b.on_delivery(st, rep(ttl=14), 40.0, pos, RandomStream(8))
    for k in range(10):
        acts = b.on_delivery(st, req(tx=6 + k, ttl=15), 41.0 + k, pos, RandomStream(9 + k))
        for msg in sent(acts):
            assert msg.kind != E_REQ
        delays = timer_delays(acts)
        assert DTN not in delays and FORWARD not in delays
    assert st.phase == SOLVED
    assert DTN not in st.live


# -- flooding baselines ----------------------------------------------------------

def flood():
    return FloodingBehavior(P, gated=False)


def test_flooding_relays_request_exactly_once():
    b = flood()
    st = relay_state()
    pos = (2900.0, 2500.0)
    acts = b.on_delivery(st, req(), 0.4, pos, RandomStream(3))
    assert st.phase == ACCEPTING
    delay = timer_delays(acts)[FORWARD]
    assert 0.0 <= delay < P.cw_max_s
    acts = b.on_timer(st, FORWARD, 5.0, pos, RandomStream(4))
    (msg,) = sent(acts)
    assert (msg.kind, msg.ttl, msg.tx) == (E_REQ, 15, st.node)
    # the relay decision is spent: further requests are ignored
    acts = b.on_delivery(st, req(tx=9, ttl=15), 9.0, pos, RandomStream(5))
    assert timer_delays(acts) == {}


def test_flooding_relays_the_copy_that_won_the_coin():
    # a spent copy makes the node aware but is never the relay payload
    b = flood()
    st = relay_state()
    pos = (2900.0, 2500.0)
    acts = b.on_delivery(st, req(ttl=0), 0.4, pos, RandomStream(3))
    assert st.phase == ACCEPTING
    assert timer_delays(acts) == {}
    acts = b.on_delivery(st, req(tx=9, ttl=5), 1.0, pos, RandomStream(4))
    assert FORWARD in timer_delays(acts)
    (msg,) = sent(b.on_timer(st, FORWARD, 6.0, pos, RandomStream(5)))
    assert (msg.kind, msg.ttl, msg.tx, msg.tx_pos) == (E_REQ, 4, st.node, pos)


def test_flooding_solver_always_answers():
    b = flood()
    st = solver_state()
    pos = (2900.0, 2500.0)
    acts = b.on_delivery(st, req(), 0.4, pos, RandomStream(3))
    delays = timer_delays(acts)
    assert ACCEPT in delays and FORWARD not in delays
    acts = b.on_timer(st, ACCEPT, 5.0, pos, RandomStream(4))
    (msg,) = sent(acts)
    assert (msg.kind, msg.tx, msg.ttl) == (E_REP, st.node, 15)
    assert st.phase == SOLVED


def test_flooding_reply_relayed_once_and_solves():
    b = flood()
    st = relay_state()
    pos = (2900.0, 2500.0)
    acts = b.on_delivery(st, rep(ttl=14), 10.0, pos, RandomStream(3))
    assert st.phase == SOLVED
    assert ACCEPT in timer_delays(acts)
    acts = b.on_timer(st, ACCEPT, 12.0, pos, RandomStream(4))
    (msg,) = sent(acts)
    assert (msg.kind, msg.ttl) == (E_REP, 13)
    # a second overheard reply is not relayed again
    acts = b.on_delivery(st, rep(ttl=14), 50.0, pos, RandomStream(5))
    assert timer_delays(acts) == {}


def test_flooding_solved_node_cancels_pending_request_relay():
    b = flood()
    st = relay_state()
    pos = (2900.0, 2500.0)
    b.on_delivery(st, req(), 0.4, pos, RandomStream(3))
    assert FORWARD in st.live
    acts = b.on_delivery(st, rep(ttl=14), 2.0, pos, RandomStream(4))
    cancelled = {a[1] for a in acts if a[0] == CANCEL_TIMER}
    assert FORWARD in cancelled


def test_flooding_solved_node_answers_later_requests():
    b = flood()
    st = relay_state()
    pos = (2900.0, 2500.0)
    b.on_delivery(st, rep(ttl=14), 10.0, pos, RandomStream(3))
    b.on_timer(st, ACCEPT, 12.0, pos, RandomStream(4))
    acts = b.on_delivery(st, req(tx=3, ttl=8), 30.0, pos, RandomStream(5))
    assert ACCEPT in timer_delays(acts)
    acts = b.on_timer(st, ACCEPT, 33.0, pos, RandomStream(6))
    (msg,) = sent(acts)
    assert (msg.kind, msg.ttl) == (E_REP, 13)


def test_probabilistic_coin_is_final_for_requests():
    found_skip = found_relay = False
    for s in range(60):
        b = FloodingBehavior(P, gated=True)  # P.q_flood is 0.4
        st = relay_state()
        acts = b.on_delivery(st, req(), 0.4, (2900.0, 2500.0), RandomStream(s))
        if FORWARD in timer_delays(acts):
            found_relay = True
        else:
            found_skip = True
            assert st.req_done  # the decision is spent even on a lost coin
            later = b.on_delivery(st, req(tx=9, ttl=15), 9.0, (2900.0, 2500.0),
                                  RandomStream(s + 1000))
            assert timer_delays(later) == {}
    assert found_skip and found_relay


def test_probabilistic_never_gates_original_replies():
    for s in range(30):
        b = FloodingBehavior(P, gated=True)  # P.q_flood is 0.4
        st = solver_state()
        acts = b.on_delivery(st, req(), 0.4, (2900.0, 2500.0), RandomStream(s))
        assert ACCEPT in timer_delays(acts)


# -- ignored request copies ---------------------------------------------------------

def _effects(b, st, msg, t, pos, seed):
    """What `on_delivery` of msg does to a copy of st: (actions, state changed, draws made)."""
    after = copy.deepcopy(st)
    stream, twin = RandomStream(seed), RandomStream(seed)
    acts = b.on_delivery(after, msg, t, pos, stream)
    return acts, after != st, stream.uniform(0.0, 1.0) != twin.uniform(0.0, 1.0)


def _request_copies():
    """(copy, receiver position): every hop budget, from three transmitters and spots."""
    for ttl in range(P.ttl_init + 1):
        for tx, tx_pos, pos in ((0, ORIGIN, (2900.0, 2500.0)), (1, (0.0, 0.0), (0.0, 0.0)),
                                (9, (4999.0, 12.5), (2600.0, 2400.0))):
            yield req(tx=tx, ttl=ttl, tx_pos=tx_pos), pos


def _decided_relays():
    """(label, behavior, state) for each kind of baseline relay past its relay decision."""
    pos = (2900.0, 2500.0)
    b = flood()
    armed = relay_state()
    b.on_delivery(armed, req(), 0.4, pos, RandomStream(3))
    fired = relay_state()
    b.on_delivery(fired, req(), 0.4, pos, RandomStream(3))
    b.on_timer(fired, FORWARD, 5.0, pos, RandomStream(4))
    cases = [("flooding, relay armed", b, armed), ("flooding, relay sent", b, fired)]
    won = lost = None
    for s in range(60):
        g = FloodingBehavior(P, gated=True)  # P.q_flood is 0.4
        st = relay_state()
        g.on_delivery(st, req(), 0.4, pos, RandomStream(s))
        if FORWARD in st.live:
            won = won or (g, st)
        else:
            lost = lost or (g, st)
    cases += [("probabilistic, coin won", *won), ("probabilistic, coin lost", *lost)]
    return cases


DECIDED = _decided_relays()


@pytest.mark.parametrize("label,b,st", DECIDED, ids=[case[0] for case in DECIDED])
def test_decided_baseline_relay_ignores_every_request_copy(label, b, st):
    assert st.req_done and st.phase == ACCEPTING
    for msg, pos in _request_copies():
        assert b.ignores_request(st, msg), label
        assert _effects(b, st, msg, 30.0 + msg.ttl, pos, msg.ttl) == ([], False, False), \
            (label, msg)


@pytest.mark.parametrize("make", [locate, basic, flood, lambda: FloodingBehavior(P, gated=True)],
                         ids=["locate", "locate-basic", "flooding", "probabilistic"])
def test_source_ignores_every_request_copy(make):
    b = make()
    st = source_state()
    b.start_emergency(st, 0.0, ORIGIN, RandomStream(3))
    for msg, pos in _request_copies():
        assert b.ignores_request(st, msg)
        assert _effects(b, st, msg, 30.0 + msg.ttl, pos, msg.ttl) == ([], False, False), msg


def _acting_copies():
    """(label, behavior, state, copy) where the copy acts, so the predicate must be false."""
    pos = (2900.0, 2500.0)
    b = flood()
    solver = solver_state()  # its reply sent, its reply slot is free again
    b.on_delivery(solver, req(), 0.4, pos, RandomStream(3))
    b.on_timer(solver, ACCEPT, 5.0, pos, RandomStream(4))
    solved = relay_state()  # its cached reply relayed, its reply slot is free again
    b.on_delivery(solved, req(), 0.4, pos, RandomStream(3))
    b.on_delivery(solved, rep(ttl=14), 2.0, pos, RandomStream(4))
    b.on_timer(solved, ACCEPT, 9.0, pos, RandomStream(5))
    spent_copy = relay_state()
    b.on_delivery(spent_copy, req(ttl=0), 0.4, pos, RandomStream(3))
    cases = [("flooding solver", b, solver, req()), ("flooding solved relay", b, solved, req()),
             ("flooding relay heard only ttl 0", b, spent_copy, req())]
    for name, lb in (("locate", locate()), ("locate-basic", basic())):
        unaware = relay_state()
        # no copy acts on a relay in ACCEPTING; a solver that heard only a spent copy
        # has no reply armed
        accepting = solver_state()
        lb.on_delivery(accepting, req(ttl=0), 0.4, pos, RandomStream(3))
        forwarding = relay_state()
        lb.on_delivery(forwarding, req(), 0.4, pos, RandomStream(3))
        lb.on_timer(forwarding, GUARD, 20.4, pos, RandomStream(4))
        carrier = dtn_carrier(lb)  # stored ttl 15, so a ttl 16 copy is fresher
        cases += [(f"{name} {st.phase}", lb, st, req())
                  for st in (unaware, accepting, forwarding, carrier)]
        loc_solved = dtn_carrier(lb)
        lb.on_delivery(loc_solved, rep(ttl=14), 30.0, pos, RandomStream(6))
        cases.append((f"{name} solved", lb, loc_solved, req()))
    lb = locate()
    cases.append(("locate carrier, new transmitter", lb, dtn_carrier(lb), req(tx=7, ttl=3)))
    frozen = dtn_carrier(lb)
    lb.on_delivery(frozen, req(tx=7, ttl=14), 25.0, pos, RandomStream(8))
    lb.on_delivery(frozen, req(tx=8, ttl=14), 26.0, pos, RandomStream(9))
    cases += [("locate frozen", lb, frozen, req(tx=9, ttl=3)),
              ("locate frozen, fresher copy", lb, frozen, req(tx=7, ttl=16))]
    return cases


def test_ignores_request_is_false_where_a_copy_may_act():
    cases = _acting_copies()
    phases = {st.phase for label, b, st, msg in cases if label.startswith("locate ")}
    assert phases == {UNAWARE, ACCEPTING, FORWARDING, DTN_ACTIVE, DTN_FROZEN, SOLVED}
    for label, b, st, msg in cases:
        assert not b.ignores_request(st, msg), label
        acts, changed, drew = _effects(b, st, msg, 40.0, (2900.0, 2500.0), 5)
        assert acts or changed or drew, label


run_configs = strategies.builds(
    lambda n, tau, protocol, pdr_model, interference, ttl_init, horizon_s, side_m, seed:
        ScenarioConfig(n=n, tau=tau, protocol=protocol, side_m=side_m, runs=1,
                       base_seed=seed, horizon_s=horizon_s,
                       radio=lora_profile(pdr_model=pdr_model, interference=interference),
                       params=ProtocolParams(ttl_init=ttl_init)),
    n=strategies.integers(1, 12),
    tau=strategies.floats(0.0, 1.0),
    protocol=strategies.sampled_from(experiments.PROTOCOLS),
    pdr_model=strategies.sampled_from((UNIT_DISK, SMOOTH)),
    interference=strategies.sampled_from((INTERFERENCE_NONE, INTERFERENCE_COLLISION)),
    ttl_init=strategies.integers(0, 6),
    horizon_s=strategies.floats(1.0, 1800.0),
    side_m=strategies.floats(300.0, 3000.0),
    seed=strategies.integers(0, 2**31 - 1),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(run_configs)
def test_ignored_request_copies_change_nothing_in_a_run(config):
    """Every request copy handed to `on_delivery` in a generated run with the skip off,
    with the state it found: where `ignores_request` holds, the handler returns no
    action, changes no field and draws nothing."""
    cls = LocateBehavior if config.protocol.startswith("locate") else FloodingBehavior
    on_delivery = cls.on_delivery
    seen = []

    def capturing(self, st, msg, t, pos, stream):
        if msg.kind == E_REQ:
            seen.append((self, copy.deepcopy(st), msg, t, pos))
        return on_delivery(self, st, msg, t, pos, stream)

    with mock.patch.object(cls, "on_delivery", capturing), \
            mock.patch.object(cls, "ignores_request", lambda self, st, msg: False):
        run_once(config, 0)
    for b, st, msg, t, pos in seen:
        if b.ignores_request(st, msg):
            assert _effects(b, st, msg, t, pos, config.base_seed) == ([], False, False), \
                (st, msg)
