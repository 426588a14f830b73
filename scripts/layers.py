"""Sample where `run_once` spends its time, layer by layer, at the fixed points.

    python3 scripts/layers.py [--passes N]

A stdlib statistical profiler. `signal.setitimer(ITIMER_REAL)` raises SIGALRM
every 0.5 ms, and each sample is charged to the innermost frame whose code
lies in this checkout's `src/locatesim`. A frame outside it, such as a C call
or a dataclass-generated `__init__` (file `<string>`), goes to its nearest
`src/locatesim` caller. LAYERS maps each function, by its dotted name
(module, then qualified name), to one of the north star's layers; the
longest mapped prefix wins, so a class's entry covers its methods and
`run_once`'s nested `interpret` is not charged to `run_once`.

ITIMER_PROF would count CPU time only, but on Linux it fires at the
scheduler tick: 252 signals per CPU second at a 0.5 ms interval on a 250 Hz
kernel, against 2,011 for ITIMER_REAL. A signal that comes due while the
process waits for a CPU is delivered once, when it runs again, so a wait
adds at most one sample. CPython handles a signal only between bytecodes, so
a C call's time falls to the Python frame that made it.

So a sample is charged where the signal is handled, at the next check for
pending signals (a call into a Python function, a backward jump), not where
the time went. Adding or removing one builtin call in the run loop therefore
moves 3-6 points between neighbouring layers: removing one `dict.get` from
`run_once`'s loop read runner 9.0 → 4.1 and mobility 3.9 → 8.6 at `locate`
n=5 (`--passes 5`), while the benchmark's traced self times barely moved.
Compare tables only between trees whose run loops make the same builtin
calls; otherwise compare the traced self times
(`perfbench/run.py --trace 1`, the `*.self_ms_per_run` metrics).

Each pass runs every fixed point of `points.py` and the two benchmark-shaped
points of `ab.py`, RUNS runs each; the points alternate within a pass so that
drift in host speed falls on all of them. Per point it prints each layer's
median share over passes with its min-max. The script exits 1 if a sample
lands in a `src/locatesim` function that LAYERS does not name, or if LAYERS
names a function the package lacks.
"""

import argparse
import importlib
import signal
import statistics
import sys
import time
from collections import Counter
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType

from ab import shaped
from points import ROOT, RUNS, configs

INTERVAL_S = 0.0005

# layer -> dotted names; a name covers everything nested in it unless a longer one is mapped
LAYERS = {
    "kernel": ("kernel.EventQueue", "kernel.RandomStream"),
    "mobility": ("world.World.position_at", "world.World.start_leg", "world._new_leg",
                 "world.World.random", "world.World.__init__", "world.solver_count"),
    "radio": ("radio.broadcast", "radio.pdr", "world.World.near", "world.World.forget_index",
              "world._Index", "world._entries_at"),
    "handlers": ("protocol.LocateBehavior", "protocol.FloodingBehavior",
                 "protocol._SourceMixin", "protocol.may_transmit", "protocol._set",
                 "protocol._cancel", "protocol._relayed", "protocol._fire_reply",
                 "protocol._relay_cached_reply", "protocol._become_solved",
                 "protocol.distance_bias", "protocol.acceptance_window",
                 "protocol.forwarding_window", "protocol.dtn_forward_probability"),
    "interpreter": ("experiments.run_once.<locals>.interpret",),
    "runner": ("experiments.run_once", "experiments.<lambda>"),
}

Key = tuple[str, int, str]  # a code object's file, first line and name


def dotted_names(modules) -> dict[Key, str]:
    """The dotted name of every function in `modules`, nested ones included.

    Each module's source is compiled afresh and its code objects walked: a
    function's children are its locals, a class body's are its attributes.
    Keys are those of the loaded code, which comes from the same source.
    """
    names: dict[Key, str] = {}

    def walk(code: CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if isinstance(const, CodeType):
                name = prefix + const.co_name
                names[(const.co_filename, const.co_firstlineno, const.co_name)] = name
                walk(const, name + (".<locals>." if const.co_flags & CO_NEWLOCALS else "."))

    for module in modules:
        path = module.__file__
        stem = Path(path).stem
        walk(compile(Path(path).read_text(), path, "exec"), stem + ".")
    return names


def covers(entry: str, name: str) -> bool:
    return name == entry or name.startswith(entry + ".")


def layer_of(name: str) -> str | None:
    """The layer of the longest LAYERS entry that covers `name`."""
    best, layer = -1, None
    for candidate, entries in LAYERS.items():
        for entry in entries:
            if covers(entry, name) and len(entry) > best:
                best, layer = len(entry), candidate
    return layer


def sampled(run_once, config, files: set[str]) -> Counter:
    """Samples per innermost package code key over runs 0..RUNS-1; None counts the rest."""
    counts: Counter = Counter()

    def on_sample(signum, frame):
        while frame is not None:
            code = frame.f_code
            if code.co_filename in files:
                counts[(code.co_filename, code.co_firstlineno, code.co_name)] += 1
                return
            frame = frame.f_back
        counts[None] += 1

    previous = signal.signal(signal.SIGALRM, on_sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        for i in range(RUNS):
            run_once(config, i)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--passes", type=int, default=5, help="passes over the points (5)")
    passes = parser.parse_args().passes
    if passes < 1:
        parser.error("--passes must be at least 1")
    sys.path.insert(0, str(ROOT / "src"))
    package = "locatesim"
    run_once = importlib.import_module(package + ".experiments").run_once
    # every module of the package, so a sample in a module LAYERS never names is caught too
    modules = [importlib.import_module(f"{package}.{path.stem}")
               for path in sorted((ROOT / "src" / package).glob("*.py"))
               if path.stem != "__init__"]
    names = dotted_names(modules)
    stale = sorted(entry for entries in LAYERS.values() for entry in entries
                   if not any(covers(entry, name) for name in names.values()))
    if stale:
        print("LAYERS names functions the package lacks:", *stale)
        sys.exit(1)
    files = {module.__file__ for module in modules}
    points = configs(package) + shaped(package)
    shares = {name: {layer: [] for layer in LAYERS} for name, _ in points}
    samples = Counter()
    outside = 0
    unnamed: Counter = Counter()
    start = time.perf_counter()
    for _ in range(passes):
        for name, config in points:
            counts = sampled(run_once, config, files)
            outside += counts.pop(None, 0)
            per_layer = Counter()
            for key, n in counts.items():
                dotted = names.get(key, f"{Path(key[0]).stem}.{key[2]} (line {key[1]})")
                layer = layer_of(dotted)
                if layer is None:
                    unnamed[dotted] += n
                else:
                    per_layer[layer] += n
            total = sum(per_layer.values())
            samples[name] += total
            for layer in LAYERS:
                shares[name][layer].append(100.0 * per_layer[layer] / total if total else 0.0)
    took = time.perf_counter() - start
    print(f"share of samples per layer, % median (min-max) over {passes} passes, "
          f"{RUNS} runs per point per pass")
    print(f"{'point':<16} {'samples':>8}" + "".join(f" {layer:>17}" for layer in LAYERS))
    for name, _ in points:
        cells = []
        for layer in LAYERS:
            values = shares[name][layer]
            cells.append(f"{statistics.median(values):.1f} ({min(values):.1f}-{max(values):.1f})")
        print(f"{name:<16} {samples[name]:>8}" + "".join(f" {cell:>17}" for cell in cells))
    print(f"{sum(samples.values())} samples in {took:.1f} s; {outside} outside the package")
    if unnamed:
        print("samples in functions LAYERS does not name:",
              *(f"{name} ({n})" for name, n in unnamed.most_common()))
        sys.exit(1)


if __name__ == "__main__":
    main()
