"""Event queue ordering/cancellation and seeded random stream behavior."""

import math
import random

import pytest

from locatesim.kernel import DELIVERY, LEG_END, TIMER, Event, EventQueue, RandomStream


def test_pop_orders_by_time():
    q = EventQueue()
    q.schedule(3.0, TIMER, 1)
    q.schedule(1.0, TIMER, 2)
    q.schedule(2.0, TIMER, 3)
    assert [q.pop().node for _ in range(3)] == [2, 3, 1]


def test_equal_times_pop_in_insertion_order():
    q = EventQueue()
    for node in (5, 1, 9, 3):
        q.schedule(7.0, DELIVERY, node)
    assert [q.pop().node for _ in range(4)] == [5, 1, 9, 3]


def test_an_event_scheduled_at_the_current_time_pops_after_the_pending_ties():
    # the run loop hands a broadcast's receivers their copies from one event; that
    # equals one event per copy only because a same-time event scheduled while the
    # copies are handled pops after every copy
    q = EventQueue()
    q.schedule(7.0, DELIVERY, 1)
    q.schedule(7.0, DELIVERY, 2)
    assert q.pop().node == 1
    assert q.now == 7.0
    q.schedule(7.0, TIMER, 3)
    assert [q.pop().node for _ in range(2)] == [2, 3]


def test_events_given_at_construction_pop_by_time_then_in_the_given_order():
    q = EventQueue([(3.0, LEG_END, 1, None), (1.0, LEG_END, 2, None),
                    (3.0, LEG_END, 3, None), (1.0, LEG_END, 4, "payload")])
    q.schedule(1.0, TIMER, 5)  # an equal time scheduled later pops after them
    assert q.pop() == Event(1.0, LEG_END, 2, None)
    assert [q.pop().node for _ in range(4)] == [4, 5, 1, 3]
    assert q.pop() is None


def test_construction_pops_as_scheduling_the_events_one_by_one():
    stream = random.Random(3)
    # few distinct times, so most events tie with another
    events = [(float(stream.randrange(8)), TIMER, node, None) for node in range(200)]
    built = EventQueue(events)
    scheduled = EventQueue()
    for event in events:
        scheduled.schedule(*event)
    for q in (built, scheduled):
        q.schedule(3.0, DELIVERY, 999)
    assert [built.pop() for _ in range(201)] == [scheduled.pop() for _ in range(201)]
    assert built.pop() is None


def test_event_before_the_clock_rejected_at_construction():
    with pytest.raises(ValueError):
        EventQueue([(1.0, LEG_END, 1, None), (-0.5, LEG_END, 2, None)])
    assert EventQueue([(0.0, LEG_END, 1, None)]).pop().node == 1  # the clock's instant is allowed


def test_pop_returns_event_tuple_and_advances_clock():
    q = EventQueue()
    q.schedule(2.5, LEG_END, 4, "payload")
    ev = q.pop()
    assert ev == Event(2.5, LEG_END, 4, "payload")
    # an Event, not just an equal tuple: the loop and the benchmark's tracer read its fields
    assert type(ev) is Event
    assert (ev.time, ev.kind, ev.node, ev.data) == (2.5, LEG_END, 4, "payload")
    assert q.now == 2.5
    assert q.pop() is None


def test_cancel_skips_event():
    q = EventQueue()
    handle = q.schedule(1.0, TIMER, 1)
    q.schedule(2.0, TIMER, 2)
    q.cancel(handle)
    q.cancel(handle)  # idempotent
    ev = q.pop()
    assert (ev.time, ev.node) == (2.0, 2)


def test_peek_skips_cancelled_and_keeps_clock():
    q = EventQueue()
    handle = q.schedule(1.0, TIMER, 1)
    q.schedule(4.0, TIMER, 2)
    q.cancel(handle)
    assert q.peek() == 4.0
    assert q.now == 0.0
    q.pop()
    assert q.peek() is None


def test_schedule_in_the_past_rejected():
    q = EventQueue()
    q.schedule(5.0, TIMER, 1)
    q.pop()
    with pytest.raises(ValueError):
        q.schedule(4.9, TIMER, 1)
    q.schedule(5.0, TIMER, 1)  # same instant is allowed


def test_pending_entries_pop_until_drained():
    q = EventQueue()
    q.schedule(1.0, TIMER, 1)
    q.schedule(2.0, TIMER, 2)
    assert [q.pop().node, q.pop().node] == [1, 2]
    assert q.pop() is None


def test_same_seed_same_draws():
    a = RandomStream(42)
    b = RandomStream(42)
    assert [a.uniform(0.0, 1.0) for _ in range(5)] == [b.uniform(0.0, 1.0) for _ in range(5)]
    assert a.uniform(1.0, 9.0) == b.uniform(1.0, 9.0)
    assert a.sample(range(100), 7) == b.sample(range(100), 7)


def test_different_seeds_diverge():
    assert RandomStream(1).uniform(0.0, 1.0) != RandomStream(2).uniform(0.0, 1.0)


def test_uniform_stays_in_half_open_interval():
    s = RandomStream(7)
    for _ in range(2000):
        u = s.uniform(3.0, 3.5)
        assert 3.0 <= u < 3.5


def test_uniform_degenerate_and_bad_bounds():
    s = RandomStream(7)
    assert s.uniform(2.0, 2.0) == 2.0
    with pytest.raises(ValueError):
        s.uniform(2.0, 1.0)


def test_bernoulli_extremes_and_validation():
    s = RandomStream(7)
    assert not any(s.bernoulli(0.0) for _ in range(100))
    assert all(s.bernoulli(1.0) for _ in range(100))
    with pytest.raises(ValueError):
        s.bernoulli(1.5)
    with pytest.raises(ValueError):
        s.bernoulli(-0.1)


def test_bernoulli_rate_tracks_probability():
    s = RandomStream(11)
    hits = sum(s.bernoulli(0.3) for _ in range(20000))
    assert math.isclose(hits / 20000.0, 0.3, abs_tol=0.02)


TOP_DRAW = 1.0 - 2.0 ** -53  # the largest float random() returns


def test_uniform_pulls_a_draw_that_rounds_up_to_hi():
    s = RandomStream(7)
    s.random = lambda: TOP_DRAW
    assert 5.0 + (20.0 - 5.0) * TOP_DRAW == 20.0  # the map rounds onto the open bound
    assert s.uniform(5.0, 20.0) == math.nextafter(20.0, 5.0)
    assert s.bernoulli(1.0)
