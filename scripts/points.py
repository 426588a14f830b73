"""Time `run_once` at the fixed points, and fingerprint each point's results.

The fixed points are `locate`, `locate-basic`, `flooding` and `probabilistic`
at n=40, tau 0.15; `locate` at n=5 and at tau 0.05; and `locate` with the wifi
preset at n=40. Every point makes RUNS runs at base seed 1 over the default
24 h horizon. For each point this prints the mean milliseconds per run and a
SHA-256 of its `RunResult`s, imported from the `src/` of the checkout the
script sits in. Equal digests from two checkouts mean equal results. Host
times drift, so compare two checkouts by running the script from each in
turn, several times, or time both in one process with `ab.py`.

    python3 scripts/points.py
"""

import dataclasses
import hashlib
import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUNS = 40

# name, ScenarioConfig fields; a "radio" field names a preset of the package's radio module
POINTS = (
    ("locate", dict(protocol="locate")),
    ("locate-basic", dict(protocol="locate-basic")),
    ("flooding", dict(protocol="flooding")),
    ("probabilistic", dict(protocol="probabilistic")),
    ("locate n=5", dict(protocol="locate", n=5)),
    ("locate tau=0.05", dict(protocol="locate", tau=0.05)),
    ("locate wifi", dict(protocol="locate", radio="wifi")),
)


def configs(package: str) -> list[tuple[str, object]]:
    """Each point's name and its config, built from the modules of `package`."""
    experiments = importlib.import_module(package + ".experiments")
    radio = importlib.import_module(package + ".radio")
    out = []
    for name, fields in POINTS:
        fields = dict(fields, runs=RUNS)
        if "radio" in fields:
            fields["radio"] = getattr(radio, fields["radio"] + "_profile")()
        out.append((name, experiments.ScenarioConfig(**fields)))
    return out


def measure(run_once, config) -> tuple[float, str]:
    """Mean ms per run over runs 0..RUNS-1, and the SHA-256 of their results."""
    digest = hashlib.sha256()
    took = 0.0
    for i in range(RUNS):
        start = time.perf_counter()
        result = run_once(config, i)
        took += time.perf_counter() - start
        digest.update(repr(dataclasses.astuple(result)).encode())
    return 1e3 * took / RUNS, digest.hexdigest()


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from locatesim.experiments import run_once

    for name, config in configs("locatesim"):
        ms, digest = measure(run_once, config)
        print(f"{name:<16} {ms:9.3f} ms/run  {digest}")


if __name__ == "__main__":
    main()
