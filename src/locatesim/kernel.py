"""Deterministic discrete-event core: simulation clock, cancellable event queue, seeded draws."""

from __future__ import annotations

import heapq
import math
import random
from typing import Any, Iterable, NamedTuple

# event kinds
TIMER = 0
DELIVERY = 1
LEG_END = 2
FREEZE_POLL = 3

_CANCELLED = -1


class Event(NamedTuple):
    time: float
    kind: int
    node: int
    data: Any


_new_tuple = tuple.__new__


class EventQueue:
    """Min-heap of events ordered by (time, insertion sequence), with tombstone cancellation.

    Ties at equal time pop in insertion order, so a replay with the same
    schedule calls yields the same pop order. `events`, (time, kind, node,
    data) tuples, enter at construction in the given order: numbered as that
    many `schedule` calls would number them, then heapified once. The keys
    are unique, so they pop exactly as if scheduled one by one. As with
    `schedule`, none may lie before the clock (0.0); none gets a handle, so
    none can be cancelled.
    """

    __slots__ = ("_heap", "_seq", "now")

    def __init__(self, events: Iterable[tuple[float, int, int, Any]] = ()) -> None:
        heap: list[list] = []
        for time, kind, node, data in events:
            if time < 0.0:
                raise ValueError(f"cannot schedule event at t={time} before current t=0.0")
            heap.append([time, len(heap), kind, node, data])
        heapq.heapify(heap)
        self._heap = heap
        self._seq = len(heap)
        self.now = 0.0

    def schedule(self, time: float, kind: int, node: int, data: Any = None) -> list:
        """Insert an event and return its handle (accepted by cancel)."""
        if time < self.now:
            raise ValueError(f"cannot schedule event at t={time} before current t={self.now}")
        entry = [time, self._seq, kind, node, data]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle: list) -> None:
        """Mark a pending event dead; it will be skipped on pop. Idempotent."""
        handle[2] = _CANCELLED

    def peek(self) -> float | None:
        """Time of the next live event without popping it, or None if drained."""
        heap = self._heap
        while heap and heap[0][2] == _CANCELLED:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def pop(self) -> Event | None:
        """Remove and return the next live event, advancing the clock; None when empty."""
        heap = self._heap
        while heap:
            time, _seq, kind, node, data = heapq.heappop(heap)
            if kind != _CANCELLED:
                self.now = time
                # the same Event, built in C: the NamedTuple's own __new__ is a Python function
                return _new_tuple(Event, (time, kind, node, data))
        return None


class RandomStream:
    """Seeded pseudo-random source; the draw sequence depends only on seed and call order.

    `random` is the generator's own bound method, a float in [0, 1) per call. The
    per-event draw sites call it directly, with `uniform`'s map or `bernoulli`'s test
    written out, so each draw costs no Python frame: `LocateBehavior.carry_tick` (its
    coin and period), `FloodingBehavior._coin`, the smooth-model loss coin in
    `radio.broadcast`, and `World.random`'s placement plus `world._new_leg`'s heading
    and speed. Each relies on bounds validated where they are built: `ProtocolParams`
    (0 <= cw_min < cw_max, p_start and q_flood in (0, 1]), the loss coin's own
    0 < p < 1 branch, `World`'s finite positive side, and the speed and heading
    constants. Every other draw goes through `uniform` or `bernoulli`.
    """

    __slots__ = ("_rng", "random")

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.random = self._rng.random

    def uniform(self, lo: float, hi: float) -> float:
        """Draw from [lo, hi); returns lo when the interval is degenerate."""
        if not (lo <= hi):
            raise ValueError(f"uniform bounds out of order: [{lo}, {hi})")
        if lo == hi:
            return lo
        u = lo + (hi - lo) * self.random()
        # guard the half-open upper bound against rounding
        return u if u < hi else math.nextafter(hi, lo)

    def bernoulli(self, p: float) -> bool:
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"bernoulli probability {p} outside [0, 1]")
        return self.random() < p

    def sample(self, population, k: int) -> list:
        return self._rng.sample(population, k)
