"""locatesim benchmark: one workload per invocation, or all of them.

    python3 perfbench/run.py --workload carry-24h --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
`--trace 0` measures the end-to-end metrics with nothing wrapped; `--trace 1`
simulates one pass untraced and the same pass traced, and reports the
per-layer metrics (see spans.py). Every simulated run is checked against the
recorded reference results (see reference.py). Host times are scaled to a
reference machine speed (see speed.py). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import workloads
from spans import Tracer
from speed import SpeedLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (name, unit, better); BENCHMARK.json lists the same metrics
END_TO_END = (
    ("runs_per_s", "1/s", "higher"),
    ("run_ms_p50", "ms", "lower"),
    ("run_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("err_pct", "fraction", "higher"),
    ("ert_mean_s", "s", "lower"),
    ("eo_mean", "tx/run", "lower"),
)

PER_LAYER = (
    ("kernel.events_per_run", "count", "lower"),
    ("kernel.timer_events_per_run", "count", "lower"),
    ("kernel.delivery_events_per_run", "count", "lower"),
    ("kernel.leg_end_events_per_run", "count", "lower"),
    ("kernel.freeze_poll_events_per_run", "count", "lower"),
    ("kernel.schedules_per_run", "count", "lower"),
    ("kernel.cancels_per_run", "count", "lower"),
    ("kernel.self_ms_per_run", "ms", "lower"),
    ("kernel.us_per_event", "us", "lower"),
    ("protocol.on_timer_calls_per_run", "count", "lower"),
    ("protocol.timer_tx_ratio", "ratio", "higher"),
    ("protocol.on_delivery_calls_per_run", "count", "lower"),
    ("protocol.on_freeze_poll_calls_per_run", "count", "lower"),
    ("protocol.self_ms_per_run", "ms", "lower"),
    ("radio.broadcasts_per_run", "count", "lower"),
    ("radio.self_ms_per_run", "ms", "lower"),
    ("radio.us_per_broadcast", "us", "lower"),
    ("radio.receptions_per_broadcast", "count", "lower"),
    ("radio.collision_drop_ratio", "ratio", "lower"),
    ("world.position_at_calls_per_run", "count", "lower"),
    ("world.position_at_ms_per_run", "ms", "lower"),
    ("world.start_leg_calls_per_run", "count", "lower"),
    ("world.start_leg_ms_per_run", "ms", "lower"),
    ("world.random_ms_per_run", "ms", "lower"),
    ("experiments.run_once_self_ms_per_run", "ms", "lower"),
    ("experiments.transmissions_per_run", "count", "lower"),
    ("experiments.pools_started", "count", "lower"),
    ("experiments.pool_efficiency", "ratio", "higher"),
    ("experiments.batch_s_per_point", "s", "lower"),
    ("cli.write_outputs_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

SETUP_PROBES = 9
# Each run's host time is the median of its scaled times over at least this
# many passes (or sweeps).
MIN_PASSES = 3
# calibration samples taken before and after each sweep
SWEEP_CALIBRATIONS = 20
MAX_FAILURES_SHOWN = 5


def import_package():
    """Import locatesim from this checkout's src/, never from anywhere else."""
    if not (SRC / "locatesim" / "__init__.py").is_file():
        raise SystemExit(f"error: no locatesim package under {SRC}; "
                         "run from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import locatesim
    if Path(locatesim.__file__).resolve().parent != SRC / "locatesim":
        raise SystemExit(f"error: imported locatesim from {locatesim.__file__}, not {SRC}")
    return locatesim


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p90, p75 and p50 with at least 10 samples above it, as (q, value)."""
    if len(samples) < 2:
        return None
    cuts = statistics.quantiles(samples, n=100)
    for q in (90, 75, 50):
        value = cuts[q - 1]
        if sum(1 for s in samples if s > value) >= 10:
            return q, value
    return None


class Tally:
    """Runs attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_FAILURES_SHOWN:
                self.reasons.append(reason)


def paper_metrics(results: list, e_thr_s: float) -> dict[str, float]:
    """The paper's metrics over one pass: resolution rate, resolution time, overhead."""
    from locatesim.experiments import aggregate
    agg = aggregate(results, e_thr_s)
    return {"err_pct": agg.err_pct,
            "ert_mean_s": agg.ert_mean_s if agg.ert_mean_s is not None else float("nan"),
            "eo_mean": agg.eo_mean}


def peak_rss_mb(pool_workers: int = 0) -> float:
    """This process's peak RSS plus, for pooled runs, workers x the largest child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pool_workers else 0
    return (own + pool_workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of the time to import locatesim and build the configs."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


# -- serial workloads ----------------------------------------------------------

def serial_plan(w, seed: int):
    expected, events = reference.load(w.name)
    cfgs = {(c.protocol, c.tau): c for c in workloads.configs(w)}
    pool = [key for key in events if key[:2] in cfgs and key[2] < w.pool_runs]
    if len(pool) != len(cfgs) * w.pool_runs:
        raise RuntimeError(f"{w.name}: reference covers {len(pool)} of "
                           f"{len(cfgs) * w.pool_runs} pool runs")
    ranked = workloads.rank_pool(pool, events, expected, w.pass_runs)
    return expected, cfgs, workloads.stratified_pass(ranked, w.pass_runs, seed)


def run_pass(plan, cfgs, expected, horizon_s, tally: Tally, speed: SpeedLog | None = None):
    """Simulate each planned run once, calibrating before each run and after the last when
    given a SpeedLog; returns (wall s, per-run (start, end), results in plan order)."""
    from locatesim import experiments
    spans = []
    results = []
    t_pass = time.perf_counter()
    for key in plan:
        if speed is not None:
            speed.sample()
        t0 = time.perf_counter()
        try:
            result = experiments.run_once(cfgs[key[:2]], key[2])
        except Exception as exc:  # a crashing run is a failed operation, not the end
            result = exc
        spans.append((t0, time.perf_counter()))
        results.append(result)
    if speed is not None:
        speed.sample()
    wall = time.perf_counter() - t_pass
    for key, result in zip(plan, results):
        if isinstance(result, Exception):
            tally.add(f"{key}: raised {result!r}")
        else:
            tally.add(reference.check(key, result, expected, horizon_s))
    return wall, spans, results


def per_run_medians(samples: dict) -> dict:
    """Each run's median host time over its samples."""
    return {key: statistics.median(times) for key, times in samples.items()}


def timing_metrics(per_run: dict, runs_per_s: float) -> tuple[dict, str]:
    """runs_per_s plus the median and tail of per-run host times."""
    times = list(per_run.values())
    tail = tail_percentile(times)
    metrics = {"runs_per_s": runs_per_s, "run_ms_p50": 1e3 * statistics.median(times),
               "run_ms_p90": 1e3 * tail[1] if tail else float("nan")}
    return metrics, (f"{len(times)} distinct runs, tail percentile "
                     f"p{tail[0] if tail else '-'}")


def unscaled_note(metrics: dict, speed: SpeedLog) -> str:
    """The host times as the clock read them, for comparison with the scaled ones."""
    return (f"unscaled runs_per_s {metrics['runs_per_s']:.4g}, run_ms_p50 "
            f"{metrics['run_ms_p50']:.4g}, run_ms_p90 {metrics['run_ms_p90']:.4g}; "
            f"median speed factor {speed.median_factor():.3f}")


def serial_end_to_end(w, seed: int, seconds: float) -> tuple[dict, Tally, list[str]]:
    expected, cfgs, plan = serial_plan(w, seed)
    tally = Tally()
    speed = SpeedLog()
    timed: list[tuple] = []  # (key, start, end) of every timed run
    passes = 0
    first = None
    t_start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - t_start < seconds:
        _wall, spans, results = run_pass(plan, cfgs, expected, w.horizon_s, tally, speed)
        timed.extend((key, t0, t1) for key, (t0, t1) in zip(plan, spans))
        passes += 1
        first = first or results
    scaled: dict[tuple, list[float]] = {}
    raw: dict[tuple, list[float]] = {}
    for key, t0, t1 in timed:
        scaled.setdefault(key, []).append((t1 - t0) * speed.factor(t0, t1))
        raw.setdefault(key, []).append(t1 - t0)
    per_run = per_run_medians(scaled)
    metrics, note = timing_metrics(per_run, len(plan) / sum(per_run.values()))
    raw_per_run = per_run_medians(raw)
    raw_metrics, _ = timing_metrics(raw_per_run, len(plan) / sum(raw_per_run.values()))
    metrics["peak_rss_mb"] = peak_rss_mb()
    completed = [r for r in first if not isinstance(r, Exception)]
    e_thr = next(iter(cfgs.values())).params.e_thr_s
    metrics.update(paper_metrics(completed, e_thr))
    return metrics, tally, [f"{passes} passes of {len(plan)} runs; {note}",
                            unscaled_note(raw_metrics, speed)]


def serial_traced(w, seed: int) -> tuple[dict, Tally, list[str]]:
    from locatesim import cli, experiments
    expected, cfgs, plan = serial_plan(w, seed)
    plan = plan[:w.trace_runs]
    tally = Tally()
    plain_wall, _, _ = run_pass(plan, cfgs, expected, w.horizon_s, tally)
    with Tracer() as tracer:
        traced_wall, _, results = run_pass(plan, cfgs, expected, w.horizon_s, tally)
        rows = []
        for (protocol, tau), cfg in cfgs.items():
            mine = [r for key, r in zip(plan, results) if key[:2] == (protocol, tau)]
            rows.append(experiments.SweepRow(protocol, cfg.n, tau, cfg.params.p_start, mine,
                                             experiments.aggregate(mine, cfg.params.e_thr_s)))
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            cli.write_outputs(tmp, rows)
    tracer.finish()
    metrics = layer_metrics(tracer, len(cfgs), plain_wall, traced_wall)
    return metrics, tally, [f"traced {len(plan)} runs"]


# -- sweep-pool -----------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


class RunLog:
    """Stands in for experiments.run_once in the untraced sweep: times each run where it
    executes, inside the pool worker, and appends the result to a per-process file."""

    def __init__(self, run_once, spool: Path) -> None:
        self.run_once = run_once
        self.spool = spool
        self.files: dict[int, object] = {}

    def __call__(self, config, run_index, *args, **kwargs):
        t0 = time.perf_counter()
        r = self.run_once(config, run_index, *args, **kwargs)
        host_s = time.perf_counter() - t0
        pid = os.getpid()
        fh = self.files.get(pid)
        if fh is None:
            # unbuffered: a pool worker leaves through os._exit, which flushes nothing
            fh = self.files[pid] = open(self.spool / f"runs-{pid}.txt", "ab", buffering=0)
        ert = "" if r.ert_s is None else repr(r.ert_s)
        fh.write((f"{config.protocol},{config.tau!r},{r.run_index},{r.seed},{int(r.solved)},"
                  f"{ert},{r.ereq_count},{r.erep_count},{r.end_time_s!r},{host_s!r}\n").encode())
        return r

    def drain(self) -> list[tuple]:
        """(key, fields, host s) of every run logged since the last drain."""
        for fh in self.files.values():
            fh.close()
        self.files.clear()
        out = []
        for path in sorted(self.spool.glob("runs-*.txt")):
            for line in path.read_text().splitlines():
                p, tau, run, seed, solved, ert, ereq, erep, end, host = line.split(",")
                key = (p, float(tau), int(run))
                fields = (int(run), int(seed), solved == "1", float(ert) if ert else None,
                          int(ereq), int(erep), float(end))
                out.append((key, fields, float(host)))
            path.unlink()
        return out


def sweep_cli(argv: list[str]) -> float:
    """Run the sweep command quietly; returns its wall time."""
    from locatesim import cli
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"locate-sim {' '.join(argv)} exited {code}")
    return wall


def check_runs_csv(path: Path, runs: int, expected: dict, tally: Tally) -> None:
    """runs.csv holds every (protocol, tau, run) once, with values at six significant digits."""
    lines = path.read_text().splitlines()[1:]
    want = len(workloads.SWEEP_PROTOCOLS) * len(workloads.SWEEP_TAUS) * runs
    if len(lines) != want:
        tally.add(f"{path.name}: {len(lines)} rows, expected {want}")
    seen = set()
    for line in lines:
        protocol, _n, tau, run, seed, solved, ert, ereq, erep, end = line.split(",")
        key = (protocol, float(tau), int(run))
        got = (int(run), int(seed), solved == "1", float(ert) if ert else None,
               int(ereq), int(erep), float(end))
        ref = expected.get(key)
        if ref is None or key in seen or got != _six_digits(ref):
            tally.add(f"{path.name}: row {line!r} does not match reference {ref}")
        seen.add(key)


def _six_digits(fields: tuple) -> tuple:
    """Reference fields with the reals rounded as runs.csv writes them."""
    run, seed, solved, ert, ereq, erep, end = fields
    return (run, seed, solved, None if ert is None else float(f"{ert:.6g}"), ereq, erep,
            float(f"{end:.6g}"))


def logged_sweep(argv: list[str], runs: int, out_dir: Path, log: RunLog,
                 expected: dict, tally: Tally) -> tuple[float, dict, list]:
    """One sweep with every run logged and checked; returns (wall s, {key: host s}, results)."""
    from locatesim import experiments
    experiments.run_once = log
    try:
        wall = sweep_cli(argv)
    finally:
        experiments.run_once = log.run_once
    logged = log.drain()
    host = {}
    results = []
    for key, fields, host_s in logged:
        host[key] = host_s
        r = experiments.RunResult(*fields)
        results.append(r)
        tally.add(reference.check(key, r, expected, workloads.SWEEP_HORIZON_S))
    want = len(workloads.SWEEP_PROTOCOLS) * len(workloads.SWEEP_TAUS) * runs
    if len(host) != want or len(logged) != want:
        tally.add(f"sweep logged {len(logged)} runs, expected {want} distinct ones")
    check_runs_csv(out_dir / "runs.csv", runs, expected, tally)
    return wall, host, results


def sweep_end_to_end(seed: int, seconds: float) -> tuple[dict, Tally, list[str]]:
    from locatesim import experiments
    expected, _ = reference.load(workloads.SWEEP_NAME)
    tally = Tally()
    workers = nproc()
    os.environ[experiments.THREADS_ENV] = str(workers)
    speed = SpeedLog()
    sweeps = []  # (start, wall s, {key: host s inside the worker})
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        out_dir = Path(tmp) / "out"
        argv, runs = workloads.sweep_argv(seed, str(out_dir))
        log = RunLog(experiments.run_once, Path(tmp))
        t_start = time.perf_counter()
        while len(sweeps) < MIN_PASSES or time.perf_counter() - t_start < seconds:
            # the pool's workers busy every CPU, so calibrate between sweeps, not during
            speed.sample(SWEEP_CALIBRATIONS)
            t0 = time.perf_counter()
            wall, pass_host, results = logged_sweep(argv, runs, out_dir, log, expected, tally)
            sweeps.append((t0, wall, pass_host))
        speed.sample(SWEEP_CALIBRATIONS)
    scaled_walls = []
    scaled: dict[tuple, list[float]] = {}
    raw: dict[tuple, list[float]] = {}
    for t0, wall, pass_host in sweeps:
        factor = speed.factor(t0, t0 + wall)
        scaled_walls.append(wall * factor)
        for key, t in pass_host.items():
            scaled.setdefault(key, []).append(t * factor)
            raw.setdefault(key, []).append(t)
    walls = [wall for _, wall, _ in sweeps]
    metrics, note = timing_metrics(per_run_medians(scaled),
                                   len(results) / statistics.median(scaled_walls))
    raw_metrics, _ = timing_metrics(per_run_medians(raw), len(results) / statistics.median(walls))
    metrics["peak_rss_mb"] = peak_rss_mb(pool_workers=workers)
    metrics.update(paper_metrics(results, experiments.ScenarioConfig().params.e_thr_s))
    notes = [f"{len(sweeps)} sweeps of {len(results)} runs on {workers} workers; per-run "
             f"times taken inside the workers; {note}", unscaled_note(raw_metrics, speed)]
    return metrics, tally, notes


def sweep_traced(seed: int) -> tuple[dict, Tally, list[str]]:
    from locatesim import experiments
    expected, _ = reference.load(workloads.SWEEP_NAME)
    tally = Tally()
    os.environ[experiments.THREADS_ENV] = str(nproc())
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        out_dir = Path(tmp) / "out"
        argv, runs = workloads.sweep_argv(seed, str(out_dir))
        log = RunLog(experiments.run_once, Path(tmp))
        plain_wall, _, results = logged_sweep(argv, runs, out_dir, log, expected, tally)
        with Tracer(tmp) as tracer:
            traced_wall = sweep_cli(argv)
        check_runs_csv(out_dir / "runs.csv", runs, expected, tally)
        tracer.merge_spool()
    tracer.finish()
    metrics = layer_metrics(tracer, len(workloads.SWEEP_PROTOCOLS) * len(workloads.SWEEP_TAUS),
                            plain_wall, traced_wall)
    return metrics, tally, [f"traced one sweep of {len(results)} runs"]


# -- per-layer metrics ------------------------------------------------------------

def layer_metrics(tracer, points: int, plain_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics of a traced pass, against the same pass untraced for the overhead."""
    runs = len(tracer.runs)
    if runs == 0:
        raise RuntimeError("the traced pass recorded no runs")
    totals = tracer.totals
    counts = tracer.counts

    def calls(name):
        return totals[name][0] if name in totals else 0

    def own(prefix):
        return sum(v[1] for k, v in totals.items() if k.startswith(prefix))

    def incl(name):
        return totals[name][2] if name in totals else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    events = tracer.events()
    deliveries = counts["kernel.delivery_events"]
    on_timer = calls("protocol.on_timer")
    broadcasts = calls("radio.broadcast")
    pool_capacity = sum(wall * workers for wall, workers, _ in tracer.pools)
    batch_calls = calls("experiments.run_batch")
    # a serial workload has no run_batch: its points' runs are the run_once spans
    batch_s = incl("experiments.run_batch") if batch_calls else incl("experiments.run_once")
    return {
        "kernel.events_per_run": events / runs,
        "kernel.timer_events_per_run": counts["kernel.timer_events"] / runs,
        "kernel.delivery_events_per_run": deliveries / runs,
        "kernel.leg_end_events_per_run": counts["kernel.leg_end_events"] / runs,
        "kernel.freeze_poll_events_per_run": counts["kernel.freeze_poll_events"] / runs,
        "kernel.schedules_per_run": calls("kernel.schedule") / runs,
        "kernel.cancels_per_run": calls("kernel.cancel") / runs,
        "kernel.self_ms_per_run": 1e3 * own("kernel.") / runs,
        "kernel.us_per_event": 1e6 * ratio(own("kernel."), events),
        "protocol.on_timer_calls_per_run": on_timer / runs,
        "protocol.timer_tx_ratio": ratio(counts["protocol.timer_tx"], on_timer),
        "protocol.on_delivery_calls_per_run": calls("protocol.on_delivery") / runs,
        "protocol.on_freeze_poll_calls_per_run": calls("protocol.on_freeze_poll") / runs,
        "protocol.self_ms_per_run": 1e3 * own("protocol.") / runs,
        "radio.broadcasts_per_run": broadcasts / runs,
        "radio.self_ms_per_run": 1e3 * own("radio.") / runs,
        "radio.us_per_broadcast": 1e6 * ratio(own("radio."), broadcasts),
        "radio.receptions_per_broadcast": ratio(counts["radio.receptions"], broadcasts),
        "radio.collision_drop_ratio":
            ratio(deliveries - calls("protocol.on_delivery"), deliveries),
        "world.position_at_calls_per_run": calls("world.position_at") / runs,
        "world.position_at_ms_per_run": 1e3 * own("world.position_at") / runs,
        "world.start_leg_calls_per_run": calls("world.start_leg") / runs,
        "world.start_leg_ms_per_run": 1e3 * own("world.start_leg") / runs,
        "world.random_ms_per_run": 1e3 * own("world.random") / runs,
        "experiments.run_once_self_ms_per_run": 1e3 * own("experiments.run_once") / runs,
        "experiments.transmissions_per_run": sum(r["tx"] for r in tracer.runs) / runs,
        "experiments.pools_started": len(tracer.pools),
        "experiments.pool_efficiency":
            ratio(sum(cpu for _, _, cpu in tracer.pools), pool_capacity),
        "experiments.batch_s_per_point": batch_s / points,
        "cli.write_outputs_ms": 1e3 * ratio(incl("cli.write_outputs"),
                                            calls("cli.write_outputs")),
        "trace.overhead_pct": 100.0 * (traced_wall / plain_wall - 1.0),
    }


# -- entry points ---------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = workloads.serial(name)
    if w is not None:
        if trace:
            metrics, tally, notes = serial_traced(w, seed)
        else:
            metrics, tally, notes = serial_end_to_end(w, seed, seconds)
    elif trace:
        metrics, tally, notes = sweep_traced(seed)
    else:
        metrics, tally, notes = sweep_end_to_end(seed, seconds)
    specs = PER_LAYER if trace else END_TO_END
    if not trace:
        metrics["setup_s"] = setup_seconds(name)
    print(f"# {name} seed={seed} trace={int(trace)}: " + "; ".join(notes))
    for metric, unit, _better in specs:
        print(f"{name:18s} {metric:40s} {metrics[metric]:14.6g} {unit}")
    print(f"{name:18s} {'failed/attempted':40s} {tally.failed:>8d}/{tally.attempted} runs")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {metric: {"value": metrics[metric], "unit": unit}
                        for metric, unit, _better in specs}}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own fresh interpreter; metrics keyed `<workload>.<metric>`."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
