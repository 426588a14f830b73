"""Broadcast propagation: who hears a transmission (`run_once` judges collisions)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernel import RandomStream
from .world import World, distance

UNIT_DISK = "unit_disk"
SMOOTH = "smooth"

INTERFERENCE_NONE = "none"
INTERFERENCE_COLLISION = "collision"


@dataclass(frozen=True, slots=True)
class RadioProfile:
    range_m: float = 500.0
    airtime_s: float = 0.4
    pdr_model: str = UNIT_DISK
    beta: float = 4.0  # smooth-model falloff exponent
    interference: str = INTERFERENCE_NONE

    def __post_init__(self) -> None:
        for name in ("range_m", "airtime_s", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"radio {name} {value} must be finite")
        if self.range_m <= 0.0:
            raise ValueError(f"radio range {self.range_m} must be positive")
        if self.airtime_s <= 0.0:
            raise ValueError(f"airtime {self.airtime_s} must be positive")
        if self.beta <= 0.0:
            raise ValueError(f"smooth-model exponent beta {self.beta} must be positive")
        if self.pdr_model == "unit-disk":  # the model spec's spelling of unit_disk
            object.__setattr__(self, "pdr_model", UNIT_DISK)
        # named as the config keys, since the CLI reports these messages as they are
        if self.pdr_model not in (UNIT_DISK, SMOOTH):
            raise ValueError(f"radio_pdr_model: expected {UNIT_DISK!r} or {SMOOTH!r}, "
                             f"got {self.pdr_model!r}")
        if self.interference not in (INTERFERENCE_NONE, INTERFERENCE_COLLISION):
            raise ValueError(f"radio_interference: expected {INTERFERENCE_NONE!r} or "
                             f"{INTERFERENCE_COLLISION!r}, got {self.interference!r}")


def lora_profile(**overrides) -> RadioProfile:
    return RadioProfile(**{"range_m": 500.0, "airtime_s": 0.4, **overrides})


def wifi_profile(**overrides) -> RadioProfile:
    return RadioProfile(**{"range_m": 100.0, "airtime_s": 0.4, **overrides})


def pdr(d: float, profile: RadioProfile) -> float:
    """Packet delivery ratio at distance d; exactly zero beyond range."""
    if d < 0.0:
        raise ValueError(f"negative distance {d}")
    if d > profile.range_m:
        return 0.0
    if profile.pdr_model == UNIT_DISK:
        return 1.0
    p = 1.0 - (d / profile.range_m) ** profile.beta
    return p if p > 0.0 else 0.0


def broadcast(world: World, tx_node: int, t: float, profile: RadioProfile,
              stream: RandomStream) -> list[int]:
    """Ids, ascending, of the nodes that receive a transmission starting at time t.

    Membership is decided from positions at the transmission start; the
    transmitter never hears itself. Of the candidates `world.near` returns,
    only those whose index-time position lies within its radius r of the
    transmitter are evaluated. A candidate outside the disk's y band
    [y - r, y + r] is dropped before the disk test, which it would fail too
    but for an ulp tie at |dy| = r, a point 1 m beyond any receiver. That is
    exact: a node in range now lay within r - DRIFT_MARGIN of the transmitter
    then, and the band's ends and the squared compare round by a few ulps, far
    less than the margin. A candidate inside the disk costs one `position_at`
    call, and its distance is `world.distance`. The nodes within reach are
    sorted by id, which restores the order a scan of every node has, before any
    loss is drawn, so loss draws happen in node-id order, and only for nodes
    whose delivery ratio is strictly between 0 and 1; the unit-disk model
    consumes no randomness and takes every node within reach without asking
    `pdr`. Each entry's leg velocity and end in the disk test were measured and
    left out (CHANGES.md).
    """
    position_at = world.position_at
    tx_pos = position_at(tx_node, t)
    x, y = tx_pos
    reach = profile.range_m
    candidates, r = world.near(x, y, t, reach)
    r2 = r * r
    lo = y - r  # the disk's y band
    hi = y + r
    unit_disk = profile.pdr_model == UNIT_DISK
    heard: list = []  # ids under the unit disk, else (id, distance) pairs
    for node, x0, y0 in candidates:
        if not (lo <= y0 <= hi):
            continue
        dx = x0 - x
        dy = y0 - y
        if dx * dx + dy * dy > r2 or node == tx_node:
            continue
        d = distance(tx_pos, position_at(node, t))
        if d > reach:
            continue
        heard.append(node if unit_disk else (node, d))
    heard.sort()
    if unit_disk:  # pdr is 1 at every d <= reach
        return heard
    random = stream.random
    out: list[int] = []
    for node, d in heard:
        p = pdr(d, profile)
        if p >= 1.0 or (p > 0.0 and random() < p):  # bernoulli(p) for 0 < p < 1
            out.append(node)
    return out
