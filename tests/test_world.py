"""Arena placement, role assignment, and boundary-bouncing mobility legs."""

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locatesim.kernel import RandomStream
from locatesim.world import (DRIFT_MARGIN, SPEED_MAX, SPEED_MIN, MobilityLeg, NodeRecord,
                             Role, World, distance, solver_count)

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
    assert stream._rng.getstate() == twin._rng.getstate()


def _bits(entries: list) -> list:
    """Index entries with their coordinates as hex, so that equality is bit for bit."""
    return [(i, x.hex(), y.hex()) for i, x, y in entries]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 150), st.floats(0.0, 1.0), st.floats(10.0, 5000.0),
       st.integers(0, 2**31 - 1), st.floats(0.5, 6000.0), st.floats(0.0, 600.0, exclude_min=True))
def test_placement_index_equals_a_rebuild_from_the_legs_at_zero(n, tau, side, seed, reach, later):
    """The index `World.random` builds equals, bit for bit, one rebuilt from the
    legs at 0, and the first query sets its skin (0-150 nodes, sides of 10 m to 5 km)."""
    world = World.random(n, tau, side, RandomStream(seed))
    placed = world._index
    # the same world with the index forgotten: its first query rebuilds it from the legs at 0
    rebuilt = World.random(n, tau, side, RandomStream(seed))
    rebuilt.forget_index()
    c = side / 2.0
    assert rebuilt.near(c, c, 0.0, reach) == world.near(c, c, 0.0, reach)
    fresh = rebuilt._index
    assert (placed.t0, placed.vmax) == (fresh.t0, fresh.vmax) == (0.0, SPEED_MAX)
    assert _bits(placed.entries) == _bits(fresh.entries)
    assert placed.xs == fresh.xs == sorted(placed.xs)
    # each entry is where position_at puts its node at 0
    assert _bits(sorted(placed.entries)) == \
        _bits([(i, *world.position_at(i, 0.0)) for i in range(n + 1)])
    # the first query, at 0, takes the placement index up and sets its skin from its reach
    assert world._index is placed and placed.skin == fresh.skin == max(reach, DRIFT_MARGIN)
    # a first query after 0 rebuilds at its own time, as if no index had been placed
    late = World.random(n, tau, side, RandomStream(seed))
    late.near(c, c, later, reach)
    assert late._index.t0 == later and late._index.skin == max(reach, DRIFT_MARGIN)


def test_placement_index_holds_the_leg_start_snapped_to_the_edge():
    # the first spot is drawn 1e-10 m from the west edge and from the north one: its leg
    # starts on both edges, and so does its index entry, as a rebuild at 0 would have it
    stream = RandomStream(4)
    spot = iter([1e-12, 1.0 - 1e-12])
    draw = stream.random
    stream.random = lambda: next(spot, None) or draw()
    world = World.random(1, 0.0, 100.0, stream)
    assert (world.nodes[1].leg.x0, world.nodes[1].leg.y0) == (0.0, 100.0)
    placed = world._index.entries
    world.forget_index()
    world.near(50.0, 50.0, 0.0, 500.0)
    assert _bits(placed) == _bits(world._index.entries) == _bits([(1, 0.0, 100.0),
                                                                  (0, 50.0, 50.0)])


def _uniform_leg(x: float, y: float, side: float, twin: RandomStream) -> tuple[float, float]:
    """The heading and speed of a leg from (x, y), drawn with uniform: headings are
    redrawn until one points strictly into the arena."""
    while True:
        heading = twin.uniform(0.0, 2.0 * math.pi)
        cx, cy = math.cos(heading), math.sin(heading)
        if (x > 0.0 or cx > 0.0) and (x < side or cx < 0.0) \
                and (y > 0.0 or cy > 0.0) and (y < side or cy < 0.0):
            return heading, twin.uniform(SPEED_MIN, SPEED_MAX)


def test_leg_draws_equal_uniform():
    # _new_leg writes out uniform's map on stream.random: from corners, edges and the
    # inside (where every heading is taken), the same heading and speed bit for bit,
    # and the generator left where uniform leaves it
    side = 100.0
    stream, twin = RandomStream(13), RandomStream(13)
    for x, y in [(0.0, 0.0), (side, side), (0.0, 40.0), (60.0, side), (37.5, 81.25)] * 40:
        w = World([NodeRecord(0, Role.RELAY, False, still_leg(x, y))], side)
        leg = w.start_leg(0, 0.0, stream)
        heading, speed = _uniform_leg(x, y, side, twin)
        assert (leg.heading.hex(), leg.speed.hex()) == (heading.hex(), speed.hex())
    assert stream._rng.getstate() == twin._rng.getstate()


def test_world_rejects_a_non_finite_side():
    # placement draws on [0, side) without uniform's bound check, and from a NaN
    # position no heading points inward, so the leg draw would never end
    nodes = [NodeRecord(0, Role.SOURCE, True, still_leg(0.0, 0.0))]
    for side in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            World(nodes, side)
    with pytest.raises(ValueError, match="must be finite"):
        World.random(0, 0.0, math.nan, RandomStream(1))


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
