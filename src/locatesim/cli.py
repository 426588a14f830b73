"""Command line front end: run a point, sweep an axis, or self-check the formulas.

Outputs are CSV files (per-run and aggregated) plus a gnuplot script for
sweeps. Exit codes: 0 success, 1 failed selftest, 2 bad usage or config,
3 output I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .experiments import (PROTOCOLS, SWEEP_AXES, ScenarioConfig, SweepRow, sweep,
                          sweep_points, worker_count)
from .protocol import (ProtocolParams, acceptance_window, distance_bias,
                       dtn_forward_probability, forwarding_window)
from .radio import lora_profile, wifi_profile

RUNS_HEADER = "protocol,n,tau,run,seed,solved,ert_s,ereq_count,erep_count,end_time_s"
AGG_HEADER = "protocol,n,tau,p_start,runs,err_pct,ert_mean_s,ert_ci95_s,eo_mean,eo_ci95"

RADIO_PRESETS = {"lora": lora_profile, "wifi": wifi_profile}


def format_real(x: float) -> str:
    """Reals in CSV carry 6 significant digits, trailing zeros kept."""
    return format(float(x), "#.6g")


def _opt(x: float | None) -> str:
    return "" if x is None else format_real(x)


# -- configuration ----------------------------------------------------------

# config key -> (dataclass field, parser); a key left unset takes the field's default
SCENARIO_KEYS = {
    "protocol": ("protocol", str), "n": ("n", int), "tau": ("tau", float),
    "runs": ("runs", int), "seed": ("base_seed", int), "horizon": ("horizon_s", float),
    "side": ("side_m", float),
}
RADIO_KEYS = {  # overrides of the `radio` preset's RadioProfile
    "radio_range": ("range_m", float), "radio_airtime": ("airtime_s", float),
    "radio_pdr_model": ("pdr_model", str), "radio_beta": ("beta", float),
    "radio_interference": ("interference", str),
}
PARAM_KEYS = {
    "cw_min": ("cw_min_s", float), "cw_max": ("cw_max_s", float),
    "gamma": ("gamma_per_m", float), "radius": ("radius_m", float),
    "dtn_dist": ("dtn_dist_m", float), "p_start": ("p_start", float),
    "q_flood": ("q_flood", float), "ttl_init": ("ttl_init", int), "e_thr": ("e_thr_s", float),
}
KNOWN_KEYS = {*SCENARIO_KEYS, *RADIO_KEYS, *PARAM_KEYS,
              "radio", "out", "sweep_axis", "sweep_values", "protocols"}


def _parse(raw: str, key: str, kind: type) -> int | float | str:
    try:
        return kind(raw)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"{key}: expected {expected}, got {raw!r}") from exc


def _fields(settings: dict[str, str], table: dict[str, tuple[str, type]]) -> dict[str, object]:
    return {fld: _parse(settings[key], key, kind)
            for key, (fld, kind) in table.items() if key in settings}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and # comments are skipped."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ValueError(f"{path}:{lineno}: expected `key = value`, got {line.rstrip()!r}")
        entries[key.strip()] = value.strip()
    return entries


def build_settings(args: argparse.Namespace) -> dict[str, str]:
    """Merge config file entries with command line flags; flags win.

    Every flag's dest is its config key; `command` and `config` are the only other dests.
    """
    settings: dict[str, str] = {}
    if getattr(args, "config", None):
        file_entries = parse_config_file(args.config)
        unknown = sorted(set(file_entries) - KNOWN_KEYS)
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        settings.update(file_entries)
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            settings[key] = str(value)
    return settings


def scenario_from_settings(settings: dict[str, str]) -> ScenarioConfig:
    if "n" not in settings:
        raise ValueError("missing required setting `n` (node count)")
    if "tau" not in settings:
        raise ValueError("missing required setting `tau` (solver fraction)")

    radio_name = settings.get("radio", "lora")
    preset = RADIO_PRESETS.get(radio_name)
    if preset is None:
        raise ValueError(f"radio: expected one of {sorted(RADIO_PRESETS)}, got {radio_name!r}")
    return ScenarioConfig(**_fields(settings, SCENARIO_KEYS),
                          radio=preset(**_fields(settings, RADIO_KEYS)),
                          params=ProtocolParams(**_fields(settings, PARAM_KEYS)))


def sweep_plan(settings: dict[str, str]) -> tuple[str, list[float], list[str]]:
    """Parse the sweep settings; `sweep_points` and `ScenarioConfig` check them."""
    axis = settings.get("sweep_axis")
    if not axis:
        raise ValueError("missing required setting `sweep_axis`")
    raw_values = settings.get("sweep_values", "")
    try:
        values = [float(v) for v in raw_values.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"sweep_values: expected comma-separated numbers, "
                         f"got {raw_values!r}") from exc
    if not values:
        raise ValueError("missing required setting `sweep_values`")
    names = [p.strip() for p in settings.get("protocols", "").split(",") if p.strip()]
    return axis, values, names


# -- output -----------------------------------------------------------------

def runs_csv_lines(rows: list[SweepRow]) -> list[str]:
    lines = [RUNS_HEADER]
    for row in rows:
        for r in row.results:
            lines.append(",".join((
                row.protocol, str(row.n), format_real(row.tau), str(r.run_index),
                str(r.seed), "1" if r.solved else "0", _opt(r.ert_s),
                str(r.ereq_count), str(r.erep_count), format_real(r.end_time_s),
            )))
    return lines


def aggregate_csv_lines(rows: list[SweepRow]) -> list[str]:
    lines = [AGG_HEADER]
    for row in rows:
        a = row.agg
        lines.append(",".join((
            row.protocol, str(row.n), format_real(row.tau), format_real(row.p_start),
            str(a.runs_total), format_real(a.err_pct), _opt(a.ert_mean_s),
            _opt(a.ert_ci95_s), format_real(a.eo_mean), _opt(a.eo_ci95),
        )))
    return lines


# aggregate.csv column numbers by header name; gnuplot counts from 1
_AGG_COLUMN = {name: i for i, name in enumerate(AGG_HEADER.split(","), start=1)}

# y columns of each plot: a gnuplot `using` spec with AGG_HEADER names in braces
_PLOT_BLOCKS = (
    ("ert", "mean resolution time [s]", "{ert_mean_s}:{ert_ci95_s}", "yerrorlines"),
    ("err", "runs resolved within deadline [%]", "(${err_pct}*100)", "linespoints"),
    ("eo", "mean request transmissions per run", "{eo_mean}:{eo_ci95}", "yerrorlines"),
)


def plot_script(axis: str, protocols: list[str]) -> str:
    """Gnuplot script with one png stanza per metric, one series per protocol."""
    col = _AGG_COLUMN[axis]
    out = [
        "# Render with: gnuplot plot.gp",
        'set datafile separator ","',
        "set grid",
        "set key outside right top",
    ]
    for stem, ylabel, using, style in _PLOT_BLOCKS:
        out.append("")
        out.append("set terminal pngcairo size 900,560")
        out.append(f'set output "{stem}_vs_{axis}.png"')
        out.append(f'set xlabel "{axis}"')
        out.append(f'set ylabel "{ylabel}"')
        series = []
        for name in protocols:
            x = f'(stringcolumn(1) eq "{name}" ? ${col} : NaN)'
            series.append(f'"aggregate.csv" every ::1 using {x}:{using.format_map(_AGG_COLUMN)} '
                          f'with {style} title "{name}"')
        out.append("plot \\\n  " + ", \\\n  ".join(series))
    out.append("")
    return "\n".join(out)


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def write_outputs(out_dir: str | Path, rows: list[SweepRow],
                  axis: str | None = None) -> list[Path]:
    """Write runs.csv and aggregate.csv (and plot.gp for sweeps) under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, lines in (("runs.csv", runs_csv_lines(rows)),
                        ("aggregate.csv", aggregate_csv_lines(rows))):
        path = out / name
        _write_lines(path, lines)
        written.append(path)
    if axis is not None:
        seen: dict[str, None] = {}
        for row in rows:
            seen.setdefault(row.protocol)
        path = out / "plot.gp"
        path.write_text(plot_script(axis, list(seen)))
        written.append(path)
    return written


# -- selftest ---------------------------------------------------------------

def selftest_report() -> tuple[bool, list[str]]:
    """Recompute the closed-form values and compare against frozen references."""
    p = ProtocolParams()
    checks = [
        ("distance_bias(0)", distance_bias(0.0, p.gamma_per_m, p.radius_m), 0.0),
        ("distance_bias(500)", distance_bias(500.0, p.gamma_per_m, p.radius_m), 1.25),
        ("distance_bias(1000)", distance_bias(1000.0, p.gamma_per_m, p.radius_m), 5.0 / 3.0),
        ("acceptance_window(0)", acceptance_window(0.0, p), 0.0),
        ("acceptance_window(500)", acceptance_window(500.0, p), 14.269904062796198),
        ("acceptance_window(1000)", acceptance_window(1000.0, p), 16.222487943248763),
        ("forwarding_window(0)", forwarding_window(0.0, p), 20.0),
        ("forwarding_window(500)", forwarding_window(500.0, p), 5.730095937203802),
        ("forwarding_window(1000)", forwarding_window(1000.0, p), 3.7775120567512368),
        ("dtn_forward_probability(0.4, 0)", dtn_forward_probability(0.4, 0), 0.4),
        ("dtn_forward_probability(0.4, 1)", dtn_forward_probability(0.4, 1),
         0.6324555320336759),
        ("dtn_forward_probability(0.4, 2)", dtn_forward_probability(0.4, 2),
         0.7368062997280773),
        ("dtn_forward_probability(1.0, 5)", dtn_forward_probability(1.0, 5), 1.0),
    ]
    ok = True
    lines = []
    for name, actual, expected in checks:
        scale = max(abs(expected), 1.0)
        rel = abs(actual - expected) / scale
        good = rel <= 1e-9
        ok = ok and good
        lines.append(f"{'ok' if good else 'FAIL'}  {name} = {actual!r} "
                     f"(expected {expected!r}, rel err {rel:.2e})")
    worst = 0.0
    for i in range(1001):
        d = 10000.0 * i / 1000.0
        total = acceptance_window(d, p) + forwarding_window(d, p)
        worst = max(worst, abs(total - p.cw_max_s) / p.cw_max_s)
    good = worst <= 1e-9
    ok = ok and good
    lines.append(f"{'ok' if good else 'FAIL'}  window complement over 1001 distances "
                 f"(worst rel err {worst:.2e})")
    mono_ok = True
    prev = -math.inf
    for i in range(1001):
        w = acceptance_window(10000.0 * i / 1000.0, p)
        if w < prev - 1e-12:
            mono_ok = False
        prev = w
    ok = ok and mono_ok
    lines.append(f"{'ok' if mono_ok else 'FAIL'}  acceptance window non-decreasing in distance")
    return ok, lines


# -- entry points ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locate-sim",
        description="Discrete-event simulator for LoRa emergency message dissemination.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        # flag values arrive as text and are checked like config file entries
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--protocol", help=f"one of {', '.join(PROTOCOLS)}")
        p.add_argument("--n", help="mobile node count")
        p.add_argument("--tau", help="solver fraction in [0, 1]")
        p.add_argument("--runs", help="Monte Carlo repetitions")
        p.add_argument("--seed", help="base seed; run i uses seed XOR i")
        p.add_argument("--radio", help=f"radio preset, one of {', '.join(RADIO_PRESETS)}")
        p.add_argument("--p-start", dest="p_start", help="rebroadcast probability floor")
        p.add_argument("--horizon", help="simulated cutoff [s]")
        p.add_argument("--out", help="output directory (default .)")

    run_p = sub.add_parser("run", help="simulate one parameter point")
    common(run_p)

    sweep_p = sub.add_parser("sweep", help="simulate a batch per axis value and protocol")
    common(sweep_p)
    sweep_p.add_argument("--axis", dest="sweep_axis",
                         help=f"swept parameter, one of {', '.join(SWEEP_AXES)}")
    sweep_p.add_argument("--values", dest="sweep_values",
                         help="comma-separated axis values")
    sweep_p.add_argument("--protocols", help="comma-separated protocol list")

    sub.add_parser("selftest", help="check the closed-form windows and probabilities")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command in argv (default: the process's arguments); return its exit code.

    0 success, 1 failed selftest, 2 configuration error, 3 output files could
    not be written. Every setting is checked before anything is simulated, each
    by the code that defines it (`ScenarioConfig`, `ProtocolParams`, the radio
    profile, `sweep_points`, `worker_count`). A bad one gives exit 2 and one
    `error:` line that names the bad value and, where the values are a fixed
    set, the allowed ones. A flag's value is text, checked exactly like the
    config file entry of the same key, so `--n abc` and `n = abc` give the same
    line. A flag's value may start with `-`: `--horizon -1e5` gives the line
    `horizon = -1e5` gives. Only an unknown flag, a flag without a value (a
    token that starts with `--` is never a value) or a missing command is
    reported by the argument parser, with its usage text.
    """
    # `--flag -1e5` goes to argparse as `--flag=-1e5`: it takes a value that starts with
    # one `-` and is not a plain negative number (`-1e5`, `-inf`) for an option
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        flag = tokens[-1] if tokens else ""
        if token.startswith("-") and not token.startswith("--") and flag.startswith("--") \
                and "=" not in flag and flag != "--help":
            tokens[-1] = f"{flag}={token}"
        else:
            tokens.append(token)
    args = build_parser().parse_args(tokens)

    if args.command == "selftest":
        ok, lines = selftest_report()
        print("\n".join(lines))
        print("selftest:", "ok" if ok else "FAILED")
        return 0 if ok else 1

    # every setting is checked before anything is simulated
    try:
        settings = build_settings(args)
        config = scenario_from_settings(settings)
        if args.command == "run":  # a one-point sweep
            axis, points = None, [config]
        else:
            axis, values, names = sweep_plan(settings)
            points = sweep_points(config, axis, values, names or None)
        worker_count(sum(cfg.runs for cfg in points))
        out_dir = settings.get("out", ".")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = sweep(points)

    try:
        written = write_outputs(out_dir, rows, axis)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 3

    for row in rows:
        print(_summary_line(row))
    print("wrote", ", ".join(str(p) for p in written))
    return 0


def _summary_line(row: SweepRow) -> str:
    a = row.agg
    ert = f"{a.ert_mean_s:.1f}s" if a.ert_mean_s is not None else "n/a"
    return (f"{row.protocol} n={row.n} tau={row.tau:g} p_start={row.p_start:g}: "
            f"solved {a.runs_solved}/{a.runs_total}, err={100.0 * a.err_pct:.1f}%, "
            f"ert={ert}, eo={a.eo_mean:.1f}")


if __name__ == "__main__":
    sys.exit(main())
