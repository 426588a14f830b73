"""Arena placement, role assignment, and boundary-bouncing mobility legs."""

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locatesim.kernel import RandomStream
from locatesim.world import (SPEED_MAX, SPEED_MIN, MobilityLeg, NodeRecord, Role,
                             World, distance, solver_count)

from topologies import still_leg


def test_distance():
    assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert distance((1.0, 1.0), (1.0, 1.0)) == 0.0


_coord = st.floats(allow_nan=False, allow_infinity=False)  # includes ±0, subnormals, ±max


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.tuples(_coord, _coord), st.tuples(_coord, _coord))
@example((0.0, -0.0), (-0.0, 0.0))
@example((5e-324, -5e-324), (-5e-324, 2.5e-308))
@example((1e308, -1e308), (-1e308, 1e308))  # offsets overflow to inf
@example((388.8527133337484, 314.3144402234516), (0.0, 0.0))
def test_distance_is_hypot_of_the_offsets_bit_for_bit(p, q):
    got = distance(p, q)
    want = math.hypot(p[0] - q[0], p[1] - q[1])
    assert struct.pack("<d", got) == struct.pack("<d", want), (p, q, got, want)


def test_solver_count_rounds_half_up():
    assert solver_count(40, 0.15) == 6
    assert solver_count(40, 0.05) == 2
    assert solver_count(5, 0.15) == 1
    assert solver_count(3, 0.5) == 2
    assert solver_count(10, 0.0) == 0
    assert solver_count(0, 0.9) == 0


def test_solver_count_validates_inputs():
    with pytest.raises(ValueError):
        solver_count(-1, 0.5)
    with pytest.raises(ValueError):
        solver_count(4, 1.5)


def test_random_world_layout():
    w = World.random(40, 0.15, 5000.0, RandomStream(5))
    assert len(w.nodes) == 41
    src = w.nodes[0]
    assert src.role == Role.SOURCE and src.stationary
    assert w.position_at(0, 123.0) == (2500.0, 2500.0)
    assert sum(r.role == Role.SOLVER for r in w.nodes) == 6
    for rec in w.nodes[1:]:
        assert not rec.stationary
        x, y = rec.leg.x0, rec.leg.y0
        assert 0.0 <= x <= 5000.0 and 0.0 <= y <= 5000.0
        assert SPEED_MIN <= rec.leg.speed <= SPEED_MAX
        assert rec.leg.end > rec.leg.start == 0.0


def test_random_world_is_seed_deterministic():
    a = World.random(12, 0.25, 1000.0, RandomStream(9))
    b = World.random(12, 0.25, 1000.0, RandomStream(9))
    for ra, rb in zip(a.nodes, b.nodes):
        assert (ra.role, ra.leg.x0, ra.leg.y0, ra.leg.heading, ra.leg.speed) \
            == (rb.role, rb.leg.x0, rb.leg.y0, rb.leg.heading, rb.leg.speed)


@pytest.mark.parametrize("n, tau, side, seed", [(40, 0.15, 5000.0, 5), (12, 0.25, 30.0, 9),
                                               (5, 0.2, 5000.0, 1), (0, 0.5, 100.0, 3)])
def test_random_world_legs_equal_start_leg_on_a_still_world(n, tau, side, seed):
    # placement and leg ends share one leg rule: World.random must draw what a
    # still world of the same placement gets from start_leg, node by node in id order
    stream = RandomStream(seed)
    w = World.random(n, tau, side, stream)
    twin = RandomStream(seed)
    positions = [(twin.uniform(0.0, side), twin.uniform(0.0, side)) for _ in range(n)]
    solver_ids = set(twin.sample(range(1, n + 1), solver_count(n, tau)))
    nodes = [NodeRecord(0, Role.SOURCE, True, still_leg(side / 2.0, side / 2.0))]
    for i, (x, y) in enumerate(positions, start=1):
        role = Role.SOLVER if i in solver_ids else Role.RELAY
        nodes.append(NodeRecord(i, role, False, still_leg(x, y)))
    hand = World(nodes, side)
    legs = [hand.start_leg(i, 0.0, twin) for i in range(1, n + 1)]
    assert w.nodes == hand.nodes
    assert [rec.leg for rec in w.nodes[1:]] == legs
    assert [stream.uniform(0.0, 1.0) for _ in range(3)] \
        == [twin.uniform(0.0, 1.0) for _ in range(3)]


def test_position_advances_linearly():
    w = World(
        [NodeRecord(0, Role.RELAY, False, MobilityLeg(10.0, 20.0, 0.0, 2.0, 0.0, 100.0, 2.0, 0.0))],
        1000.0)
    assert w.position_at(0, 0.0) == (10.0, 20.0)
    assert w.position_at(0, 5.0) == (20.0, 20.0)


def test_position_outside_leg_rejected():
    w = World(
        [NodeRecord(0, Role.RELAY, False, MobilityLeg(10.0, 20.0, 0.0, 2.0, 5.0, 30.0, 2.0, 0.0))],
        1000.0)
    with pytest.raises(ValueError):
        w.position_at(0, 4.0)
    with pytest.raises(ValueError):
        w.position_at(0, 31.0)


def test_stationary_position_ignores_time():
    w = World([NodeRecord(0, Role.SOURCE, True, still_leg(42.0, 17.0))], 100.0)
    assert w.position_at(0, 1e9) == (42.0, 17.0)


def test_position_is_clamped_into_arena():
    # the leg's end is past the true boundary hit; overshoot must clamp
    leg = MobilityLeg(90.0, 50.0, 0.0, 2.0, 0.0, 20.0, 2.0, 0.0)
    w = World([NodeRecord(0, Role.RELAY, False, leg)], 100.0)
    assert w.position_at(0, 20.0) == (100.0, 50.0)


def test_start_leg_heads_strictly_inward_from_corner():
    stream = RandomStream(13)
    for _ in range(50):
        leg0 = MobilityLeg(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0)
        w = World([NodeRecord(0, Role.RELAY, False, leg0)], 100.0)
        leg = w.start_leg(0, 0.0, stream)
        assert leg.vx > 0.0 and leg.vy > 0.0


def test_start_leg_ends_on_a_boundary():
    stream = RandomStream(21)
    w = World.random(1, 0.0, 500.0, RandomStream(3))
    for _ in range(40):
        leg = w.nodes[1].leg
        x, y = w.position_at(1, leg.end)
        assert min(x, y, 500.0 - x, 500.0 - y) <= 1e-9  # on some edge
        assert 0.0 <= x <= 500.0 and 0.0 <= y <= 500.0
        w.start_leg(1, leg.end, stream)


def test_leg_chain_stays_inside_arena():
    # containment: positions along consecutive legs never leave the square
    stream = RandomStream(31)
    w = World.random(1, 0.0, 300.0, RandomStream(8))
    for _ in range(60):
        leg = w.nodes[1].leg
        span = leg.end - leg.start
        for k in range(5):
            x, y = w.position_at(1, leg.start + span * k / 4.0)
            assert 0.0 <= x <= 300.0 and 0.0 <= y <= 300.0
        w.start_leg(1, leg.end, stream)


def test_start_leg_rejects_stationary_nodes():
    w = World([NodeRecord(0, Role.SOURCE, True, still_leg(5.0, 5.0))], 10.0)
    with pytest.raises(ValueError):
        w.start_leg(0, 0.0, RandomStream(1))


def test_world_validates_side():
    with pytest.raises(ValueError):
        World([], 0.0)
    # before any leg is drawn: on a zero side no heading points inward, so the draw never ends
    with pytest.raises(ValueError, match="side"):
        World.random(3, 0.5, 0.0, RandomStream(1))
