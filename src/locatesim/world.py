"""Square arena, node roles, and straight-line-until-boundary mobility."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .kernel import RandomStream

SPEED_MIN = 0.5  # m/s, pedestrian walking range
SPEED_MAX = 3.0  # m/s

_SNAP = 1e-6  # m, endpoint snap to the arena edge

# m, slack on every speed-bound reach (World.near, the freeze poll's skipped ticks):
# covers float rounding and the _SNAP pull of each new leg
DRIFT_MARGIN = 1.0


class Role(IntEnum):
    SOURCE = 0  # stationary emergency source at the arena center
    SOLVER = 1  # can answer requests
    RELAY = 2  # can only spread them


@dataclass(slots=True)
class MobilityLeg:
    x0: float
    y0: float
    heading: float  # rad
    speed: float  # m/s
    start: float  # s
    end: float  # s, boundary-hit time
    vx: float  # m/s, cached speed * cos(heading)
    vy: float  # m/s


@dataclass(slots=True)
class NodeRecord:
    id: int
    role: Role
    stationary: bool
    leg: MobilityLeg


distance = math.dist  # math.hypot(p[0] - q[0], p[1] - q[1]) bit for bit, in C


Entry = tuple[int, float, float]  # a node's id and its position when the index was built


class _Index:
    """Node entries (id, x, y) bucketed into square cells by position at build time t0.

    (x, y) is where `position_at` puts the node at t0. Cells are `reach` wide,
    or the margin if that is wider, so a query never spans more than a few
    cells. A coordinate u falls in column (or row) floor(u * inv), clamped into
    [0, cols - 1]. That map never decreases in u, so every coordinate in
    [lo, hi] falls between the columns of lo and hi. `boxes` memoises the
    entries, ascending by id, of each box of cells queried so far; cells never
    change within a build, so an entry lives exactly as long as the index.
    """

    __slots__ = ("t0", "reach", "cell", "inv", "cols", "vmax", "cells", "boxes")

    def __init__(self, nodes: list[NodeRecord], side: float, t0: float, reach: float) -> None:
        self.t0 = t0
        self.reach = reach
        self.cell = cell = max(reach, DRIFT_MARGIN)
        self.inv = inv = 1.0 / cell
        self.cols = cols = max(1, math.ceil(side / cell))
        last = cols - 1
        floor = math.floor  # cheaper than int(), and the same column once clamped
        vmax = SPEED_MAX
        cells: dict[int, list[Entry]] = {}
        for rec in nodes:
            leg = rec.leg
            x = leg.x0
            y = leg.y0
            speed = leg.speed
            if speed != 0.0:  # as in position_at
                dt = t0 - leg.start
                x += leg.vx * dt
                y += leg.vy * dt
                if x < 0.0:
                    x = 0.0
                elif x > side:
                    x = side
                if y < 0.0:
                    y = 0.0
                elif y > side:
                    y = side
                if speed > vmax:
                    vmax = speed
            # still nodes placed off the arena by hand, and the far edges, go to edge cells
            ix = floor(x * inv)
            if ix < 0:
                ix = 0
            elif ix > last:
                ix = last
            iy = floor(y * inv)
            if iy < 0:
                iy = 0
            elif iy > last:
                iy = last
            cells.setdefault(iy * cols + ix, []).append((rec.id, x, y))
        # fastest leg now, which bounds the speed; _new_leg never draws a faster one
        self.vmax = vmax
        self.cells = cells
        self.boxes: dict[tuple[int, int, int, int], tuple[Entry, ...]] = {}

    def scan(self, i0: int, i1: int, j0: int, j1: int) -> tuple[Entry, ...]:
        """Entries, ascending by id, in the cells of columns i0..i1 and rows j0..j1."""
        cols = self.cols
        cells = self.cells
        xs = range(i0, i1 + 1)
        out: list[Entry] = []
        for j in range(j0, j1 + 1):
            row = j * cols
            for i in xs:
                entries = cells.get(row + i)
                if entries is not None:
                    out += entries
        out.sort()
        return tuple(out)


def solver_count(n: int, tau: float) -> int:
    """Number of solver nodes among n mobiles for solver fraction tau; ties round up."""
    if n < 0:
        raise ValueError(f"negative node count {n}")
    if not (0.0 <= tau <= 1.0):
        raise ValueError(f"solver fraction {tau} outside [0, 1]")
    return math.floor(tau * n + 0.5)


def _new_leg(x: float, y: float, t: float, side: float, stream: RandomStream) -> MobilityLeg:
    """A leg from (x, y) at time t: the one rule behind placement and every leg end.

    Heading is drawn uniform on [0, 2*pi) and redrawn until it points
    strictly into the arena; speed is drawn after the heading is accepted.
    The leg ends exactly when the ray hits the boundary.
    """
    # pull near-edge endpoints onto the edge so the inward test is exact
    if x < _SNAP:
        x = 0.0
    elif side - x < _SNAP:
        x = side
    if y < _SNAP:
        y = 0.0
    elif side - y < _SNAP:
        y = side
    while True:
        heading = stream.uniform(0.0, 2.0 * math.pi)
        cx = math.cos(heading)
        cy = math.sin(heading)
        if (x > 0.0 or cx > 0.0) and (x < side or cx < 0.0) \
                and (y > 0.0 or cy > 0.0) and (y < side or cy < 0.0):
            break
    speed = stream.uniform(SPEED_MIN, SPEED_MAX)
    vx = speed * cx
    vy = speed * cy
    hit = math.inf
    if vx > 0.0:
        hit = (side - x) / vx
    elif vx < 0.0:
        hit = -x / vx
    # compares rather than min(): exactly the same value, without a builtin call per leg
    if vy > 0.0:
        h = (side - y) / vy
        if h < hit:
            hit = h
    elif vy < 0.0:
        h = -y / vy
        if h < hit:
            hit = h
    return MobilityLeg(x, y, heading, speed, t, t + hit, vx, vy)


class World:
    """Node placement plus per-node current mobility leg; positions are evaluated lazily."""

    __slots__ = ("nodes", "side", "_index")

    def __init__(self, nodes: list[NodeRecord], side: float) -> None:
        if side <= 0.0:
            raise ValueError(f"arena side {side} must be positive")
        self.nodes = nodes
        self.side = side
        self._index: _Index | None = None

    @classmethod
    def random(cls, n: int, tau: float, side: float, stream: RandomStream) -> "World":
        """Source pinned at the center, n mobiles placed uniformly, solvers sampled by tau.

        Draw order is fixed (positions, then solver ids, then initial legs in id
        order) so a seed fully determines the world.
        """
        c = side / 2.0
        still = MobilityLeg(c, c, 0.0, 0.0, 0.0, math.inf, 0.0, 0.0)
        # built first, so a bad side is rejected before any leg is drawn
        world = cls([NodeRecord(0, Role.SOURCE, True, still)], side)
        positions = [(stream.uniform(0.0, side), stream.uniform(0.0, side)) for _ in range(n)]
        solver_ids = set(stream.sample(range(1, n + 1), solver_count(n, tau)))
        nodes = world.nodes
        solver, relay = Role.SOLVER, Role.RELAY  # once: enum members are slow to look up
        for i, (x, y) in enumerate(positions, start=1):
            role = solver if i in solver_ids else relay
            nodes.append(NodeRecord(i, role, False, _new_leg(x, y, 0.0, side, stream)))
        return world

    def position_at(self, node_id: int, t: float) -> tuple[float, float]:
        """Position at time t, clamped into the arena; t must lie within the current leg."""
        leg = self.nodes[node_id].leg
        if leg.speed == 0.0:
            return leg.x0, leg.y0
        if not (leg.start <= t <= leg.end):
            raise ValueError(f"node {node_id}: t={t} outside leg [{leg.start}, {leg.end}]")
        dt = t - leg.start
        side = self.side
        x = leg.x0 + leg.vx * dt
        y = leg.y0 + leg.vy * dt
        if x < 0.0:
            x = 0.0
        elif x > side:
            x = side
        if y < 0.0:
            y = 0.0
        elif y > side:
            y = side
        return x, y

    def near(self, x: float, y: float, t: float, reach: float) -> tuple[tuple[Entry, ...], float]:
        """Candidates for the nodes within `reach` of (x, y) at time t, and their radius r.

        Each candidate is an entry (id, x0, y0), ascending by id, with the
        node's position at the index's build time t0. No node moves faster than
        the index's vmax, and clamping into the arena never lengthens a step,
        so one that is within reach at t was within
        r = reach + vmax * (t - t0) + DRIFT_MARGIN of the point at t0. The
        candidates are every node bucketed in the cells that the square of
        half-side r around the point touches: a superset of that disk, which a
        caller narrows on (x0, y0). The index is rebuilt when t < t0, when the
        drift passes one cell, or for another reach. Legs change only through
        `start_leg`, which keeps it valid; after setting a leg by hand, call
        `forget_index`. The candidates of a box of cells are gathered once per
        build and shared by every query that clamps to the same box.
        """
        idx = self._index
        if idx is None or t < idx.t0 or reach != idx.reach \
                or idx.vmax * (t - idx.t0) > idx.cell:
            idx = self._index = _Index(self.nodes, self.side, t, reach)
        r = reach + idx.vmax * (t - idx.t0) + DRIFT_MARGIN
        inv = idx.inv
        last = idx.cols - 1
        i0 = math.floor((x - r) * inv)
        i1 = math.floor((x + r) * inv)
        j0 = math.floor((y - r) * inv)
        j1 = math.floor((y + r) * inv)
        box = (0 if i0 < 0 else last if i0 > last else i0,
               0 if i1 < 0 else last if i1 > last else i1,
               0 if j0 < 0 else last if j0 > last else j0,
               0 if j1 < 0 else last if j1 > last else j1)
        entries = idx.boxes.get(box)
        if entries is None:
            entries = idx.boxes[box] = idx.scan(*box)
        return entries, r

    def forget_index(self) -> None:
        """Drop the position index, so legs set by hand are seen by the next `near`."""
        self._index = None

    def start_leg(self, node_id: int, t: float, stream: RandomStream) -> MobilityLeg:
        """Begin a new leg at time t from the node's current position (see `_new_leg`)."""
        rec = self.nodes[node_id]
        if rec.stationary:
            raise ValueError(f"node {node_id} is stationary")
        x, y = self.position_at(node_id, t)
        leg = rec.leg = _new_leg(x, y, t, self.side, stream)
        return leg
