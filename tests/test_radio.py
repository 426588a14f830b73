"""Delivery-ratio models, broadcast membership, and the collision rule."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locatesim import radio
from locatesim.kernel import RandomStream
from locatesim.radio import (INTERFERENCE_COLLISION, SMOOTH, UNIT_DISK, RadioProfile,
                             broadcast, collided, lora_profile, pdr, wifi_profile)
from locatesim.world import DRIFT_MARGIN, SPEED_MAX, NodeRecord, Role, World, distance

from topologies import static_world, still_leg, walking


def test_profile_presets():
    lora = lora_profile()
    assert (lora.range_m, lora.airtime_s) == (500.0, 0.4)
    assert wifi_profile().range_m == 100.0
    assert lora_profile(range_m=650.0).range_m == 650.0


def test_profile_validation():
    with pytest.raises(ValueError):
        RadioProfile(range_m=0.0)
    with pytest.raises(ValueError):
        RadioProfile(airtime_s=-1.0)
    with pytest.raises(ValueError):
        RadioProfile(pdr_model="fancy")
    with pytest.raises(ValueError):
        RadioProfile(interference="capture")
    for bad in (0.0, -2.0):  # no reception at all, or a division by zero at d = 0
        with pytest.raises(ValueError, match="beta"):
            RadioProfile(pdr_model="smooth", beta=bad)
    for bad in (math.nan, math.inf):
        for field in ("range_m", "airtime_s", "beta"):
            with pytest.raises(ValueError, match="finite"):
                RadioProfile(**{field: bad})


def test_unit_disk_pdr_is_a_step():
    p = lora_profile()
    assert pdr(0.0, p) == 1.0
    assert pdr(500.0, p) == 1.0
    assert pdr(500.0001, p) == 0.0
    with pytest.raises(ValueError):
        pdr(-1.0, p)


def test_smooth_pdr_falls_off_polynomially():
    p = lora_profile(pdr_model=SMOOTH)
    assert pdr(0.0, p) == 1.0
    assert pdr(250.0, p) == pytest.approx(1.0 - 0.5 ** 4)
    assert pdr(500.0, p) == 0.0
    assert pdr(501.0, p) == 0.0
    prev = 1.0
    for d in range(0, 501, 25):
        cur = pdr(float(d), p)
        assert cur <= prev
        prev = cur


def _triangle(spacing: float):
    # source, one node in range east, one out of range north
    return static_world(5000.0, [
        (1000.0, 1000.0),
        (1000.0 + spacing, 1000.0, Role.RELAY),
        (1000.0, 1000.0 + 2000.0, Role.RELAY),
    ])


def test_broadcast_membership():
    world = _triangle(400.0)
    assert broadcast(world, 0, 10.0, lora_profile(), RandomStream(3)) == [1]


def test_broadcast_excludes_transmitter():
    world = _triangle(100.0)
    out = broadcast(world, 1, 0.0, lora_profile(), RandomStream(3))
    assert 1 not in out


def test_unit_disk_broadcast_consumes_no_randomness():
    world = _triangle(250.0)
    stream = RandomStream(99)
    broadcast(world, 0, 0.0, lora_profile(), stream)
    assert stream.uniform(0.0, 1.0) == RandomStream(99).uniform(0.0, 1.0)


def _ring():
    # from the source: 400 m, exactly 500 m, 500.5 m (inside the index's 501 m disk
    # but out of range) and 2,000 m
    return static_world(5000.0, [(1000.0, 1000.0), (1400.0, 1000.0, Role.RELAY),
                                 (1000.0, 1500.0, Role.RELAY), (499.5, 1000.0, Role.RELAY),
                                 (3000.0, 1000.0, Role.RELAY)])


def test_unit_disk_broadcast_takes_every_candidate_in_range_without_pdr(monkeypatch):
    def boom(d, profile):
        raise AssertionError(f"pdr({d}) asked under the unit disk")

    monkeypatch.setattr(radio, "pdr", boom)
    assert broadcast(_ring(), 0, 0.0, lora_profile(), RandomStream(5)) == [1, 2]


def test_smooth_broadcast_asks_pdr_once_per_candidate_in_range(monkeypatch):
    asked = []

    def counted(d, profile):
        asked.append(d)
        return pdr(d, profile)

    monkeypatch.setattr(radio, "pdr", counted)
    stream = RandomStream(5)
    out = broadcast(_ring(), 0, 0.0, lora_profile(pdr_model=SMOOTH), stream)
    assert asked == [400.0, 500.0]  # in id order; pdr(500) is 0 under the smooth model
    twin = RandomStream(5)
    assert out == ([1] if twin.bernoulli(pdr(400.0, lora_profile(pdr_model=SMOOTH))) else [])
    assert stream.uniform(0.0, 1.0) == twin.uniform(0.0, 1.0)  # one draw, for node 1


def test_smooth_broadcast_draws_are_seed_deterministic():
    world = _triangle(420.0)
    profile = lora_profile(pdr_model=SMOOTH)
    got_a = [broadcast(world, 0, 0.0, profile, RandomStream(s)) for s in range(30)]
    got_b = [broadcast(world, 0, 0.0, profile, RandomStream(s)) for s in range(30)]
    assert got_a == got_b
    # at 420 m the delivery ratio is ~0.5, so both outcomes must occur
    counts = {len(out) for out in got_a}
    assert counts == {0, 1}


def test_broadcast_with_a_range_shorter_than_the_index_margin():
    # 3 cm and 6 cm from a 5 cm radio, across a 1 m cell edge: only the first hears it
    world = static_world(10.0, [(0.99, 5.0), (1.02, 5.0, Role.RELAY), (1.05, 5.0, Role.RELAY)])
    profile = RadioProfile(range_m=0.05)
    assert broadcast(world, 0, 0.0, profile, RandomStream(1)) == [1]
    assert broadcast(world, 1, 7.0, profile, RandomStream(1)) == [0, 2]


def test_nodes_a_cell_below_the_arena_are_indexed_in_the_edge_cells():
    # 1 m cells for a 5 cm radio; a still node placed off the arena by hand keeps its spot
    # (position_at does not clamp it), and a spot below 0 falls in column or row -1 or
    # below, which the index clamps to 0
    world = static_world(10.0, [(-0.98, -0.98), (-1.01, -1.01, Role.RELAY),
                                (0.5, 0.5, Role.RELAY), (-1.5, 3.0, Role.RELAY)])
    profile = RadioProfile(range_m=0.05)
    candidates, r = world.near(-0.98, -0.98, 0.0, profile.range_m)
    assert candidates == ((0, -0.98, -0.98), (1, -1.01, -1.01), (2, 0.5, 0.5))
    assert r == profile.range_m + DRIFT_MARGIN
    assert broadcast(world, 0, 0.0, profile, RandomStream(1)) == \
        _brute_force(world, 0, 0.0, profile, RandomStream(1)) == [1]


def test_a_walker_off_the_arena_is_indexed_where_position_at_clamps_it():
    # a leg set by hand from 1 km west of the arena: position_at reads x = 0 until the
    # walker enters, so a transmitter 300 m inside the edge hears it, though the unclamped
    # spot on the leg lies 1.28 km away, past the disk
    world = walking(static_world(5000.0, [(300.0, 2500.0), (-1000.0, 2500.0, Role.RELAY)]),
                    1, 2.0)
    assert world.near(300.0, 2500.0, 10.0, 500.0)[0] == ((0, 300.0, 2500.0), (1, 0.0, 2500.0))
    assert broadcast(world, 0, 10.0, lora_profile(), RandomStream(1)) == [1]


def test_a_receiver_at_range_is_heard_where_its_squared_offsets_round_past_range_squared():
    # hypot reads exactly 500 m, but dx * dx + dy * dy reads 5.8e-11 m^2 above 500^2, so a
    # disk test without the margin above the range drops a node that is in range
    profile = lora_profile()
    c = 2500.0
    spot = (2888.8527133337484, 2814.3144402234516)
    dx, dy = spot[0] - c, spot[1] - c
    assert distance((c, c), spot) == profile.range_m
    assert dx * dx + dy * dy > profile.range_m ** 2
    world = static_world(5000.0, [(c, c), (spot[0], spot[1], Role.RELAY)])
    assert broadcast(world, 0, 0.0, profile, RandomStream(1)) == [1]
    assert broadcast(world, 1, 0.0, profile, RandomStream(1)) == [0]


def test_broadcast_axis_bound_is_inclusive():
    # nodes exactly range_m away along +x, -x, +y and -y hear it; one ulp further out, none does
    profile = lora_profile()
    c, r = 2500.0, profile.range_m
    edge = [(c + r, c), (c - r, c), (c, c + r), (c, c - r)]
    past = [(math.nextafter(c + r, math.inf), c), (math.nextafter(c - r, -math.inf), c),
            (c, math.nextafter(c + r, math.inf)), (c, math.nextafter(c - r, -math.inf))]
    world = static_world(5000.0, [(c, c)] + [(x, y, Role.RELAY) for x, y in edge + past])
    assert broadcast(world, 0, 0.0, profile, RandomStream(1)) == [1, 2, 3, 4]


def _brute_force(world, tx_node, t, profile, stream):
    """Every node evaluated, in id order: what broadcast returns without its index."""
    tx_pos = world.position_at(tx_node, t)
    out = []
    for rec in world.nodes:
        if rec.id == tx_node:
            continue
        p = pdr(distance(tx_pos, world.position_at(rec.id, t)), profile)
        if p >= 1.0 or (p > 0.0 and stream.bernoulli(p)):
            out.append(rec.id)
    return out


@st.composite
def scan_cases(draw):
    """A world of 1-41 nodes, a radio profile and a schedule of broadcast times."""
    side = draw(st.floats(200.0, 6000.0))
    coord = st.one_of(st.sampled_from((0.0, side)), st.floats(0.0, side))  # edges, corners
    n = draw(st.integers(0, 40))
    spots = draw(st.lists(st.tuples(coord, coord, st.booleans()), min_size=n, max_size=n))
    nodes = [NodeRecord(0, Role.SOURCE, True, still_leg(side / 2.0, side / 2.0))]
    for i, (x, y, mobile) in enumerate(spots, start=1):
        nodes.append(NodeRecord(i, Role.RELAY, not mobile, still_leg(x, y)))
    world = World(nodes, side)
    legs = RandomStream(draw(st.integers(0, 2**31 - 1)))
    for rec in nodes[1:]:
        if not rec.stationary:
            world.start_leg(rec.id, 0.0, legs)
    vmax = SPEED_MAX
    if len(nodes) > 1 and draw(st.booleans()):
        fast = draw(st.integers(1, len(nodes) - 1))
        if nodes[fast].leg.x0 < side:  # a hand-built leg faster than start_leg would draw
            vmax = draw(st.floats(SPEED_MAX + 0.5, 60.0))
            walking(world, fast, vmax)
    profile = RadioProfile(range_m=draw(st.floats(50.0, 1000.0)),
                           pdr_model=draw(st.sampled_from((UNIT_DISK, SMOOTH))))
    # time steps in units of the time the fastest node takes to cross one range,
    # which is about the index's rebuild age: within it, past it, and back in time
    age = profile.range_m / vmax
    k = draw(st.integers(1, 20))
    steps = draw(st.lists(st.floats(-0.5, 1.5).map(lambda f: f * age), min_size=k, max_size=k))
    # after each step, the source beacons again at these fractions of the build's age
    beats = draw(st.lists(st.lists(st.floats(0.0, 1.0), max_size=4), min_size=k, max_size=k))
    return world, legs, profile, steps, beats


def _advance(world: World, legs: RandomStream, t: float) -> float:
    """Begin new legs up to t as the run loop does; t, or the latest leg start if later."""
    for rec in world.nodes:
        while not rec.stationary and rec.leg.end < t:
            world.start_leg(rec.id, rec.leg.end, legs)
    # a query may go back in time, but not before any node's current leg
    return max([t] + [rec.leg.start for rec in world.nodes if not rec.stationary])


def _scan_without_memo(world: World, x: float, y: float, t: float, reach: float):
    """What `World.near` returns from the current index with its box memo emptied."""
    idx = world._index
    saved, idx.boxes = idx.boxes, {}
    ids = world.near(x, y, t, reach)
    assert world._index is idx  # the same build, so the same box
    idx.boxes = saved
    return ids


def _check_broadcast(world, tx_node, t, profile, stream, twin):
    x, y = world.position_at(tx_node, t)
    near = world.near(x, y, t, profile.range_m)
    assert near == _scan_without_memo(world, x, y, t, profile.range_m), (tx_node, t)
    assert broadcast(world, tx_node, t, profile, stream) == \
        _brute_force(world, tx_node, t, profile, twin), (tx_node, t)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scan_cases(), st.integers(0, 2**31 - 1))
def test_indexed_broadcast_equals_a_scan_of_every_node(case, seed):
    world, legs, profile, steps, beats = case
    stream = RandomStream(seed)
    twin = RandomStream(seed)
    t = 0.0
    for step, fractions in zip(steps, beats):
        t = _advance(world, legs, max(t + step, 0.0))
        for tx_node in range(len(world.nodes)):
            for _ in range(2):  # the repeat at the same t reads the memo
                _check_broadcast(world, tx_node, t, profile, stream, twin)
        # the static source, at later times the same build can serve
        idx = world._index
        for f in fractions:
            beat = _advance(world, legs, max(t, idx.t0 + f * idx.cell / idx.vmax))
            _check_broadcast(world, 0, beat, profile, stream, twin)
        # the loss coin draws from stream.random as bernoulli does, to the generator state
        assert stream._rng.getstate() == twin._rng.getstate()


def _ids(world: World, x: float, y: float, t: float, reach: float) -> tuple[int, ...]:
    return tuple(entry[0] for entry in world.near(x, y, t, reach)[0])


def test_near_memo_is_dropped_with_the_index():
    # 100 m cells; node 1 stands 50 m east of the query point, node 2 800 m east
    world = static_world(5000.0, [(2500.0, 2500.0), (2550.0, 2500.0, Role.RELAY),
                                  (3300.0, 2500.0, Role.RELAY)])
    assert world.near(2500.0, 2500.0, 0.0, 100.0) == \
        (((0, 2500.0, 2500.0), (1, 2550.0, 2500.0)), 100.0 + DRIFT_MARGIN)
    # a leg set by hand is seen once the index is forgotten
    world.nodes[1].leg = still_leg(4000.0, 2500.0)
    # stale until forgotten: the entry keeps the spot at build time
    assert world.near(2500.0, 2500.0, 0.0, 100.0)[0] == \
        ((0, 2500.0, 2500.0), (1, 2550.0, 2500.0))
    world.forget_index()
    assert world.near(2500.0, 2500.0, 0.0, 100.0)[0] == ((0, 2500.0, 2500.0),)
    # a new reach clamps a query from the origin to the same box numbers, in wider cells
    assert _ids(world, 50.0, 50.0, 0.0, 100.0) == ()
    assert _ids(world, 50.0, 50.0, 0.0, 2600.0) == (0, 1, 2)
    # a step back in time rebuilds from the positions then, and the radius grows with the
    # fastest node's drift since the build
    walker = walking(static_world(5000.0, [(0.0, 0.0), (100.0, 2500.0, Role.RELAY)]), 1, 20.0)
    assert walker.near(2100.0, 2500.0, 100.0, 100.0) == (((1, 2100.0, 2500.0),), 101.0)
    assert _ids(walker, 2100.0, 2500.0, 50.0, 100.0) == ()
    assert walker.near(1100.0, 2500.0, 50.0, 100.0) == (((1, 1100.0, 2500.0),), 101.0)
    assert walker.near(1100.0, 2500.0, 52.5, 100.0) == (((1, 1100.0, 2500.0),), 151.0)


def _survivors(receptions: list[tuple[int, float, float]]) -> list[tuple[int, float, float]]:
    """Replay (receiver, start, end) receptions through the rule in delivery order."""
    busy: dict[int, list[tuple[float, float]]] = {}
    for receiver, start, end in receptions:
        busy.setdefault(receiver, []).append((start, end))
    return [r for r in sorted(receptions, key=lambda r: r[2])
            if not collided(busy[r[0]], r[1], r[2])]


@pytest.mark.parametrize("receptions, survivors", [
    pytest.param([(1, 0.0, 0.4), (1, 0.5, 0.9)], [(1, 0.0, 0.4), (1, 0.5, 0.9)],
                 id="disjoint"),
    pytest.param([(1, 0.0, 0.4), (1, 0.3, 0.7)], [], id="partial-overlap"),
    pytest.param([(1, 0.0, 2.0), (1, 0.5, 0.9)], [], id="containment"),
    pytest.param([(1, 0.0, 1.0), (1, 0.9, 1.9), (1, 1.8, 2.8)], [], id="chain-of-three"),
    pytest.param([(1, 0.0, 0.4), (1, 0.4, 0.8)], [], id="touching-endpoints"),
    pytest.param([(1, 0.0, 0.4), (2, 0.1, 0.5), (3, 0.2, 0.6)],
                 [(1, 0.0, 0.4), (2, 0.1, 0.5), (3, 0.2, 0.6)], id="separate-receivers"),
])
def test_collision_rule(receptions, survivors):
    assert _survivors(receptions) == survivors


def test_collision_constant_matches_profile_field():
    assert RadioProfile(interference=INTERFERENCE_COLLISION).interference == "collision"
