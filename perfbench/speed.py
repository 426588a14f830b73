"""Host times at a reference machine speed.

On a shared host, other tenants slow a CPU-bound Python loop by up to ~60%
for stretches of seconds to minutes, and CPU time slows with wall time, so
neither a minimum over repeats nor CPU time removes it. The benchmark
therefore times a fixed pure-Python loop, `calibrate`, between the runs it
measures, and scales each host time by REFERENCE_S over the loop's median
time around it:

    scaled = host time x REFERENCE_S / median(calibration times near it)

A change to the simulator moves the host time and not the calibration, so it
shows in full; a slow-down of the whole machine moves both and mostly cancels.
REFERENCE_S is the loop's time on a quiet 2-vCPU Intel Xeon (2.0 GHz) with
Python 3.11.7, so scaled times read as host times on that machine.

This module imports nothing from `locatesim`, so a setup probe can use it
before starting its clock.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
import statistics
import time

REFERENCE_S = 0.00043
# calibration samples within this many seconds of a timed interval set its speed
WINDOW_S = 0.5


class _Node:
    __slots__ = ("x", "y", "vx", "vy", "heard")

    def __init__(self, x: float, y: float, vx: float, vy: float) -> None:
        self.x, self.y, self.vx, self.vy = x, y, vx, vy
        self.heard = 0


def _loop() -> int:
    """A fixed little event loop: heap, float geometry and seeded draws, like the simulator's."""
    rng = random.Random(7)
    nodes = [_Node(rng.uniform(0, 5000), rng.uniform(0, 5000),
                   rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)]
    heap = [(rng.expovariate(1.0), i) for i in range(40)]
    heapq.heapify(heap)
    for _ in range(50):
        t, i = heapq.heappop(heap)
        src = nodes[i]
        sx, sy = src.x + src.vx * t, src.y + src.vy * t
        for n in nodes:
            if math.hypot(n.x + n.vx * t - sx, n.y + n.vy * t - sy) < 1500.0 \
                    and rng.random() < 0.9:
                n.heard += 1
        heapq.heappush(heap, (t + rng.expovariate(1.0), i))
    return sum(n.heard for n in nodes)


def calibrate() -> float:
    """Seconds one pass of the fixed loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class SpeedLog:
    """Calibration samples over time, and the scale factor they give an interval."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t = time.perf_counter()
            self.took.append(calibrate())
            self.at.append(t)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median calibration time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.took[lo:hi]
        if not near:
            raise ValueError(f"no calibration sample near [{start}, {end}]")
        return REFERENCE_S / statistics.median(near)

    def median_factor(self) -> float:
        """REFERENCE_S over the median of every sample: the run's typical speed."""
        return REFERENCE_S / statistics.median(self.took)
