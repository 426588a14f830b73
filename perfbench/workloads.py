"""Workload definitions and the seed-to-input mapping.

Every workload simulates at base seed 1 with the LoRa preset (500 m range) in
a 5 km arena. The workload seed never reaches the simulator: it only chooses
which reference runs a pass simulates (serial workloads) or how the sweep
command is spelled (`sweep-pool`), so every simulated run has a recorded
reference result.

This module imports nothing from `locatesim` at module level, so a setup
probe can import it before starting its clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

BASE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocols: tuple[str, ...]
    n: int
    tau: float
    horizon_s: float
    radio: dict = field(default_factory=dict)  # overrides for locatesim.radio.lora_profile
    pool_runs: int = 0  # reference runs per protocol: run indices 0..pool_runs-1
    pass_runs: int = 0  # runs per pass, one drawn from each stratum of the pool
    trace_runs: int = 0  # leading runs of the pass that the traced run simulates


SERIAL = (
    Workload(
        "carry-24h",
        "full 24 h horizon: carriers' DTN timer ticks dominate, so the kernel heap, "
        "on_timer and the run loop do the work",
        ("locate", "locate-basic"), n=40, tau=0.15, horizon_s=86400.0,
        pool_runs=300, pass_runs=100, trace_runs=60),
    Workload(
        "dense-flood-30m",
        "121 nodes and no carriers: every transmission scans all nodes, so radio "
        "broadcast and position_at dominate",
        ("flooding", "probabilistic"), n=120, tau=0.05, horizon_s=1800.0,
        pool_runs=900, pass_runs=300, trace_runs=200),
    Workload(
        "lossy-collide-30m",
        "smooth loss draws per receiver plus the collision check on every delivery; "
        "the only workload on the collision path",
        ("locate",), n=40, tau=0.15, horizon_s=1800.0,
        radio={"pdr_model": "smooth", "interference": "collision"},
        pool_runs=1800, pass_runs=200, trace_runs=200),
)

SWEEP_NAME = "sweep-pool"
SWEEP_WHY = ("the user's sweep command on a process pool: pool start-up per point "
             "and CSV writing are visible")
SWEEP_PROTOCOLS = ("flooding", "probabilistic")
SWEEP_TAUS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
SWEEP_N = 40
SWEEP_HORIZON_S = 1800.0
SWEEP_RUNS = (60, 80)  # inclusive range of --runs a seed may pick

NAMES = tuple(w.name for w in SERIAL) + (SWEEP_NAME,)


def serial(name: str) -> Workload | None:
    for w in SERIAL:
        if w.name == name:
            return w
    return None


def configs(w: Workload) -> list:
    """One ScenarioConfig per protocol of a serial workload."""
    from locatesim.experiments import ScenarioConfig
    from locatesim.radio import lora_profile
    return [ScenarioConfig(n=w.n, tau=w.tau, protocol=p, runs=w.pool_runs,
                           base_seed=BASE_SEED, horizon_s=w.horizon_s,
                           radio=lora_profile(**w.radio))
            for p in w.protocols]


def sweep_point_configs(runs: int) -> list:
    """The ScenarioConfig of every (protocol, tau) point the sweep command simulates."""
    from locatesim.experiments import ScenarioConfig
    return [ScenarioConfig(n=SWEEP_N, tau=tau, protocol=p, runs=runs, base_seed=BASE_SEED,
                           horizon_s=SWEEP_HORIZON_S)
            for p in SWEEP_PROTOCOLS for tau in SWEEP_TAUS]


STRATA_PER_BUCKET = 8


def rank_pool(pool: list[tuple], events: dict, expected: dict, pass_runs: int) -> list[tuple]:
    """Pool runs in stratum order: coarse groups by reference event count, then by outcome.

    Per-run cost is heavy-tailed (on carry-24h a third of the runs take under
    5 ms and the rest 30-300 ms), so a plain random sample would move the
    median and p90 by tens of percent from seed to seed. Ranking by event
    count fixes the cost profile of every seed's sample; ranking by resolution
    time and request count inside groups of STRATA_PER_BUCKET strata does the
    same for the paper's metrics.
    """
    by_events = sorted(pool, key=lambda k: (events[k], k))
    buckets = max(1, pass_runs // STRATA_PER_BUCKET)
    bucket = {k: i * buckets // len(by_events) for i, k in enumerate(by_events)}

    def outcome(k):
        ert = expected[k][3]
        return (bucket[k], ert if ert is not None else float("inf"), expected[k][4], k)
    return sorted(pool, key=outcome)


def stratified_pass(ranked: list[tuple], pass_runs: int, seed: int) -> list[tuple]:
    """One item from each of `pass_runs` equal consecutive strata of `ranked`, shuffled."""
    if pass_runs > len(ranked):
        raise ValueError(f"pass of {pass_runs} runs from a pool of {len(ranked)}")
    rng = random.Random(seed)
    picked = []
    for k in range(pass_runs):
        lo = k * len(ranked) // pass_runs
        hi = (k + 1) * len(ranked) // pass_runs
        picked.append(ranked[rng.randrange(lo, hi)])
    rng.shuffle(picked)
    return picked


def sweep_argv(seed: int, out_dir: str) -> tuple[list[str], int]:
    """The `locate-sim sweep` arguments for a seed, and the run count per point.

    The seed picks the run count and the order of the values and protocols;
    the rows simulated are the same (protocol, tau, run) triples in any order.
    """
    rng = random.Random(seed)
    runs = rng.randint(*SWEEP_RUNS)
    taus = list(SWEEP_TAUS)
    protocols = list(SWEEP_PROTOCOLS)
    rng.shuffle(taus)
    rng.shuffle(protocols)
    argv = ["sweep", "--axis", "tau", "--values", ",".join(f"{t:.2f}" for t in taus),
            "--protocols", ",".join(protocols), "--n", str(SWEEP_N), "--tau", "0.15",
            "--runs", str(runs), "--seed", str(BASE_SEED),
            "--horizon", str(int(SWEEP_HORIZON_S)), "--out", out_dir]
    return argv, runs
