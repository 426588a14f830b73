"""Hand-built worlds for driving the simulator in tests."""

from locatesim.world import MobilityLeg, NodeRecord, Role, World

import math


def still_leg(x: float, y: float) -> MobilityLeg:
    return MobilityLeg(x, y, 0.0, 0.0, 0.0, math.inf, 0.0, 0.0)


def static_world(side: float, spots: list) -> World:
    """World from [(x, y), (x, y, role), ...]; the first entry is the source."""
    first = spots[0]
    nodes = [NodeRecord(0, Role.SOURCE, True, still_leg(first[0], first[1]))]
    for i, (x, y, role) in enumerate(spots[1:], start=1):
        nodes.append(NodeRecord(i, role, True, still_leg(x, y)))
    return World(nodes, side)


def line_world(side: float = 5000.0) -> World:
    """Source at the center, a relay 400 m east, a solver 400 m past the relay."""
    half = side / 2.0
    return static_world(side, [
        (half, half),
        (half + 400.0, half, Role.RELAY),
        (half + 800.0, half, Role.SOLVER),
    ])


def pair_world(d: float = 300.0, side: float = 5000.0) -> World:
    """Source at the center plus one static solver d meters east."""
    half = side / 2.0
    return static_world(side, [(half, half), (half + d, half, Role.SOLVER)])


def walking(world: World, node: int, speed: float) -> World:
    """Set `node` walking east at `speed` m/s from where it stands until the arena edge."""
    rec = world.nodes[node]
    x, y = rec.leg.x0, rec.leg.y0
    rec.stationary = False
    rec.leg = MobilityLeg(x, y, 0.0, speed, 0.0, (world.side - x) / speed, speed, 0.0)
    return world
