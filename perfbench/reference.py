"""Recorded reference results, the per-run check, and the tool that records them.

A reference file is a gzip'd CSV with one row per simulated run:
`protocol,tau,run,seed,solved,ert_s,ereq_count,erep_count,end_time_s,events`.
Reals are written with repr, so they read back bit-exact; an unsolved run
leaves `ert_s` empty. `events` is the number of events the run popped when it
was recorded; the benchmark only uses it to stratify the pool of serial runs.

Re-record (only when a change is meant to alter results, and say so):

    python3 perfbench/reference.py            # every workload
    python3 perfbench/reference.py carry-24h  # one workload
"""

from __future__ import annotations

import gzip
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "reference"
HEADER = "protocol,tau,run,seed,solved,ert_s,ereq_count,erep_count,end_time_s,events"

Key = tuple  # (protocol, tau, run_index)


def ref_path(workload: str) -> Path:
    return REF_DIR / f"{workload}.csv.gz"


def fields(result) -> tuple:
    """The comparable content of a RunResult."""
    return (result.run_index, result.seed, result.solved, result.ert_s,
            result.ereq_count, result.erep_count, result.end_time_s)


def load(workload: str) -> tuple[dict[Key, tuple], dict[Key, int]]:
    """Reference fields and recorded event counts, keyed by (protocol, tau, run)."""
    expected: dict[Key, tuple] = {}
    events: dict[Key, int] = {}
    with gzip.open(ref_path(workload), "rt") as fh:
        header = fh.readline().strip()
        if header != HEADER:
            raise ValueError(f"{ref_path(workload)}: unexpected header {header!r}")
        for line in fh:
            (protocol, tau, run, seed, solved, ert, ereq, erep, end,
             n_events) = line.rstrip("\n").split(",")
            key = (protocol, float(tau), int(run))
            expected[key] = (int(run), int(seed), solved == "1",
                             float(ert) if ert else None, int(ereq), int(erep), float(end))
            events[key] = int(n_events)
    return expected, events


def violations(result, horizon_s: float) -> list[str]:
    """Broken invariants: solved iff ert is set, 0 < ert <= end <= horizon, ereq >= 1."""
    bad = []
    if result.solved != (result.ert_s is not None):
        bad.append(f"solved={result.solved} but ert_s={result.ert_s}")
    if result.ert_s is not None and not (0.0 < result.ert_s <= result.end_time_s):
        bad.append(f"ert_s={result.ert_s} outside (0, end_time_s={result.end_time_s}]")
    if not (result.end_time_s <= horizon_s):
        bad.append(f"end_time_s={result.end_time_s} beyond horizon {horizon_s}")
    if result.ereq_count < 1:
        bad.append(f"ereq_count={result.ereq_count} < 1")
    return bad


def check(key: Key, result, expected: dict[Key, tuple], horizon_s: float) -> str | None:
    """Why a run counts as failed, or None when it matches its reference and invariants."""
    want = expected.get(key)
    if want is None:
        return f"{key}: no reference result"
    got = fields(result)
    if got != want:
        return f"{key}: got {got}, reference {want}"
    bad = violations(result, horizon_s)
    if bad:
        return f"{key}: " + "; ".join(bad)
    return None


# -- recording ---------------------------------------------------------------

def _row(config, result, n_events: int) -> str:
    ert = "" if result.ert_s is None else repr(result.ert_s)
    return ",".join((config.protocol, repr(config.tau), str(result.run_index),
                     str(result.seed), "1" if result.solved else "0", ert,
                     str(result.ereq_count), str(result.erep_count),
                     repr(result.end_time_s), str(n_events)))


def record(workload: str) -> Path:
    """Simulate every run of a workload's pool serially and write its reference file.

    The sweep-pool reference is recorded with serial run_once calls too, so
    the benchmark's comparison also shows that pooled runs equal serial ones.
    """
    import workloads
    from locatesim import experiments
    from spans import Tracer

    w = workloads.serial(workload)
    if w is not None:
        points = [(cfg, range(w.pool_runs)) for cfg in workloads.configs(w)]
    else:
        points = [(cfg, range(workloads.SWEEP_RUNS[1]))
                  for cfg in workloads.sweep_point_configs(workloads.SWEEP_RUNS[1])]
    out = io.StringIO()
    out.write(HEADER + "\n")
    with Tracer() as tracer:
        for cfg, runs in points:
            for i in runs:
                before = tracer.events()
                result = experiments.run_once(cfg, i)
                out.write(_row(cfg, result, tracer.events() - before) + "\n")
    REF_DIR.mkdir(exist_ok=True)
    path = ref_path(workload)
    # mtime=0 keeps the file byte-identical across re-recordings of the same results
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(out.getvalue().encode())
    return path


def main(argv: list[str]) -> int:
    import run  # puts the checkout's src/ on sys.path
    import workloads

    run.import_package()
    for name in argv or workloads.NAMES:
        if name not in workloads.NAMES:
            print(f"unknown workload {name!r}; expected one of {workloads.NAMES}",
                  file=sys.stderr)
            return 2
        print("recorded", record(name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
