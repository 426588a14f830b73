"""Span recorder for the traced run, installed from outside the package.

`Tracer.install` replaces the names each caller looks up (class methods,
and module globals such as `locatesim.experiments.broadcast`, which is what
`run_once` calls) with wrappers that record a span per call: name, start,
end, parent and run id. Spans stay in memory until the simulated run ends;
the run is then folded into per-name call counts and self times, which go to
the tracer's sink. Self time is a span's duration minus the part of it that
its child spans cover.

Self times are traced times: a wrapper costs more than a short call such as
`World.position_at`, and most of that cost lands in the caller's self time
(radio.broadcast calls position_at once per node). The benchmark reports the
traced pass's total overhead against the same pass untraced.

A pool worker forked from a traced process inherits the wrappers. On its
first run it drops the spans copied from its parent and sends its folded
runs to a JSON-lines file in the spool directory instead, which the parent
merges.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import time
from collections import defaultdict
from pathlib import Path

_KERNEL = ("schedule", "pop", "peek", "cancel")
EVENT_KINDS = ("timer", "delivery", "leg_end", "freeze_poll")
_WORLD = ("position_at", "start_leg")
_HANDLERS = ("on_delivery", "on_timer", "on_freeze_poll")


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: its duration minus the union of its children's intervals.

    A span is (name, start, end, parent, run_id); `parent` is the index of the
    enclosing span in the same list, or -1. Child intervals are clipped to the
    parent's, so overlapping or overhanging children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_name, start, end, _parent, _run) in enumerate(spans):
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(children.get(i, ())):
            s = max(s, start)
            e = min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def fold(spans: list[tuple], totals: dict) -> None:
    """Add each span to totals[name] = [calls, self seconds, inclusive seconds]."""
    for span, own in zip(spans, self_times(spans)):
        if span[0] is None:
            continue  # a run already folded on its own
        entry = totals.get(span[0])
        if entry is None:
            entry = totals[span[0]] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += own
        entry[2] += span[2] - span[1]


class Tracer:
    """Records spans and counts at the package's layer boundaries.

    `totals` maps a span name to [calls, self s, inclusive s]; `counts` maps
    a count name (event kinds, handler calls that returned a transmission,
    receptions) to its sum; `runs` lists one dict per folded run with its
    config key, host seconds and transmissions; `pools` lists (wall seconds,
    workers, children's CPU seconds) per process pool started.
    """

    def __init__(self, spool: str | Path | None = None) -> None:
        self.pid = os.getpid()
        self.spool = Path(spool) if spool is not None else None
        # the wrappers hold these three containers: clear them, never rebind them
        self.spans: list = []
        self.stack: list[int] = [-1]  # enclosing span indices; -1 is the root
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = None
        self.totals: dict[str, list] = {}
        self.runs: list[dict] = []
        self.pools: list[tuple[float, int, float]] = []
        self.child = False
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, note=None):
        """Wrap fn so each call records a span; note(result, counts) tallies its output."""
        tracer = self
        spans = self.spans
        stack = self.stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.run_id)
            if note is not None:
                note(out, counts)
            return out
        return wrapper

    def run_span(self, fn):
        """Wrap run_once: each call is one run, folded into the sink when it ends."""
        tracer = self
        timed = self.span("experiments.run_once", fn)

        @functools.wraps(fn)
        def wrapper(config, run_index, *args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._adopt_child()
            base = len(tracer.spans)
            tracer.run_id = (config.protocol, config.tau, run_index)
            out = timed(config, run_index, *args, **kwargs)
            tracer.run_id = None
            # the run's spans, with parent indices counted from the run's own span
            run_spans = [(n, s, e, p - base if p >= base else -1, r)
                         for n, s, e, p, r in tracer.spans[base:]]
            # an enclosing span still needs the run as a child; a None name marks it folded
            del tracer.spans[base + 1:]
            tracer.spans[base] = (None,) + tracer.spans[base][1:]
            tracer._sink(run_spans, config, out)
            return out
        return wrapper

    def _adopt_child(self) -> None:
        """First run in a forked worker: forget the parent's spans, write to the spool."""
        self.pid = os.getpid()
        self.child = True
        self.spans.clear()
        self.stack[:] = [-1]
        self.counts.clear()

    def _sink(self, run_spans: list, config, result) -> None:
        root = run_spans[0]
        run = {"protocol": config.protocol, "tau": config.tau, "run": result.run_index,
               "host_s": root[2] - root[1],
               "tx": result.ereq_count + result.erep_count}
        if not self.child:
            fold(run_spans, self.totals)
            self.runs.append(run)
            return
        totals: dict = {}
        fold(run_spans, totals)
        line = json.dumps({"run": run, "totals": totals, "counts": dict(self.counts)})
        self.counts.clear()
        with open(self.spool / f"layers-{self.pid}.jsonl", "a") as fh:
            fh.write(line + "\n")

    def merge_spool(self) -> None:
        """Fold the runs that forked workers wrote to the spool into this tracer."""
        if self.spool is None:
            return
        for path in sorted(self.spool.glob("layers-*.jsonl")):
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                self.runs.append(rec["run"])
                for name, values in rec["totals"].items():
                    entry = self.totals.setdefault(name, [0, 0.0, 0.0])
                    for k, v in enumerate(values):
                        entry[k] += v
                for name, value in rec["counts"].items():
                    self.counts[name] += value
            path.unlink()

    def finish(self) -> None:
        """Fold the spans recorded outside any run (cli, sweep, batch and pool spans)."""
        if None in self.spans:
            raise RuntimeError("a traced span was never closed")
        fold(self.spans, self.totals)
        self.spans.clear()

    def events(self) -> int:
        """Events popped so far, of every kind."""
        return sum(self.counts[f"kernel.{kind}_events"] for kind in EVENT_KINDS)

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        from locatesim import cli, experiments, kernel, protocol, world

        kinds = dict(zip((kernel.TIMER, kernel.DELIVERY, kernel.LEG_END, kernel.FREEZE_POLL),
                         (f"kernel.{kind}_events" for kind in EVENT_KINDS)))
        transmit = protocol.TRANSMIT

        def note_pop(ev, counts):
            if ev is not None:
                counts[kinds[ev.kind]] += 1

        def note_handler(key):
            def note(acts, counts):
                for act in acts:
                    if act[0] == transmit:
                        counts[key] += 1
                        return
            return note

        def note_broadcast(receptions, counts):
            counts["radio.receptions"] += len(receptions)

        queue = kernel.EventQueue
        for attr in _KERNEL:
            self._patch(queue, attr, self.span(f"kernel.{attr}", queue.__dict__[attr],
                                               note_pop if attr == "pop" else None))
        for attr in _WORLD:
            self._patch(world.World, attr, self.span(f"world.{attr}",
                                                     world.World.__dict__[attr]))
        raw_random = world.World.__dict__["random"].__func__
        self._patch(world.World, "random",
                    classmethod(self.span("world.random", raw_random)))
        self._patch(experiments, "broadcast",
                    self.span("radio.broadcast", experiments.broadcast, note_broadcast))
        for cls in (protocol.LocateBehavior, protocol.FloodingBehavior):
            for attr in _HANDLERS:
                self._patch(cls, attr, self.span(f"protocol.{attr}", getattr(cls, attr),
                                                 note_handler(f"protocol.{attr[3:]}_tx")))
        self._patch(experiments, "run_once", self.run_span(experiments.run_once))
        self._patch(experiments, "run_batch",
                    self.span("experiments.run_batch", experiments.run_batch))
        self._patch(cli, "sweep", self.span("experiments.sweep", cli.sweep))
        self._patch(experiments, "ProcessPoolExecutor",
                    _traced_pool(self, experiments.ProcessPoolExecutor))
        self._patch(cli, "main", self.span("cli.main", cli.main))
        self._patch(cli, "write_outputs", self.span("cli.write_outputs", cli.write_outputs))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _traced_pool(tracer: Tracer, base: type) -> type:
    """A pool class whose lifetime, from construction to shutdown, is one span."""

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._span = (len(tracer.spans), tracer.stack[-1])
            tracer.spans.append(None)
            self._t0 = time.perf_counter()
            self._cpu0 = _children_cpu_s()

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if self._span is None:
                return
            idx, parent = self._span
            self._span = None
            t1 = time.perf_counter()
            tracer.spans[idx] = ("experiments.pool", self._t0, t1, parent, tracer.run_id)
            tracer.pools.append((t1 - self._t0, self._max_workers,
                                 _children_cpu_s() - self._cpu0))

    return TracedPool
