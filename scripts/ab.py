"""Time this checkout against another in one process, at the fixed points.

    python3 scripts/ab.py OTHER_CHECKOUT

Both checkouts' `src/locatesim` are copied into a temporary directory as two
packages, `ab_this` and `ab_other` (every import inside the package is
relative, so the copies import cleanly). Each of `points.py`'s fixed points,
and two points shaped like benchmark workloads that no fixed point covers, is
built from each package's own modules and makes RUNS runs. A run is timed
REPEATS times on each side and keeps the least; the side that goes first
alternates from run to run, so drift in host speed falls on both. The script
exits 1 at the first run whose `RunResult` differs between the two sides. Per
point it prints both sides' mean ms per run, the ratio of this checkout's
total time to the other's (what a runs-per-second figure reads), and the
median, over runs, of this checkout's time over the other's, with its
quartiles: below 1 means this checkout is faster.
"""

import argparse
import dataclasses
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from points import ROOT, RUNS, configs

REPEATS = 3
SIDES = ("ab_this", "ab_other")


def shaped(package: str) -> list[tuple[str, object]]:
    """The benchmark-shaped points, built from the modules of `package`.

    `flooding` at n=120, tau 0.05 over 30 min has dense-flood-30m's shape, and
    `locate` under smooth loss and collisions over 30 min has lossy-collide-30m's.
    They live here, not in `points.py`, so its digests stay as pinned.
    """
    experiments = importlib.import_module(package + ".experiments")
    radio = importlib.import_module(package + ".radio")
    lossy = radio.lora_profile(pdr_model="smooth", interference="collision")
    return [("flooding n=120", experiments.ScenarioConfig(
                protocol="flooding", n=120, tau=0.05, horizon_s=1800.0, runs=RUNS)),
            ("locate lossy", experiments.ScenarioConfig(
                protocol="locate", horizon_s=1800.0, radio=lossy, runs=RUNS))]


def best_of(run_once, config, i: int) -> tuple[float, object]:
    """The least of REPEATS timings of run i, in seconds, and its result."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = run_once(config, i)
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other", metavar="OTHER_CHECKOUT", type=Path)
    other = parser.parse_args().other / "src" / "locatesim"
    if not other.is_dir():
        parser.error(f"{other} is not a directory")
    with tempfile.TemporaryDirectory() as tmp:
        for side, src in zip(SIDES, (ROOT / "src" / "locatesim", other)):
            shutil.copytree(src, Path(tmp) / side, ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        run_once = [importlib.import_module(side + ".experiments").run_once for side in SIDES]
        points = [configs(side) + shaped(side) for side in SIDES]
        print(f"{'point':<16} {'this ms/run':>12} {'other ms/run':>13} {'total ratio':>12}  "
              "this/other per run: median (quartiles)")
        for k, (name, _) in enumerate(points[0]):
            took = ([], [])
            for i in range(RUNS):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                results = [None, None]
                for s in order:
                    seconds, results[s] = best_of(run_once[s], points[s][k][1], i)
                    took[s].append(seconds)
                this, that = (repr(dataclasses.astuple(r)) for r in results)
                if this != that:
                    print(f"{name} run {i}: results differ\n  this:  {this}\n  other: {that}")
                    sys.exit(1)
            ratios = [a / b for a, b in zip(*took)]
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            print(f"{name:<16} {1e3 * statistics.fmean(took[0]):12.3f} "
                  f"{1e3 * statistics.fmean(took[1]):13.3f} {sum(took[0]) / sum(took[1]):12.3f}  "
                  f"{median:.3f} ({q1:.3f}-{q3:.3f})")


if __name__ == "__main__":
    main()
