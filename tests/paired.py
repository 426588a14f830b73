"""Paired ratio estimates for the release gate's verdict lines.

Two protocols run at one base seed share each run's seed, so run i of one is
paired with run i of the other. The ratio of their means gets a 95% interval by
the delta method: with R = mean(a) / mean(b), its standard error is
stdev(a_i - R * b_i) / (sqrt(N) * mean(b)).
"""

import math
import statistics
from collections.abc import Sequence


def ratio(a: Sequence[float], b: Sequence[float]) -> str:
    """mean(a) / mean(b) over paired samples, with the half-width of its 95% interval."""
    r = statistics.fmean(a) / statistics.fmean(b)
    se = statistics.stdev([x - r * y for x, y in zip(a, b)]) / (
        math.sqrt(len(a)) * statistics.fmean(b))
    return f"{r:.3f} ± {1.96 * se:.3f}"


def eo_ratio(ours: list, other: list) -> str:
    """Paired ratio of request transmissions per run, over all runs."""
    return ratio([r.ereq_count for r in ours], [r.ereq_count for r in other])


def ert_ratio(ours: list, other: list) -> str:
    """Paired ratio of resolution times, over the runs both protocols solved."""
    both = [(x.ert_s, y.ert_s) for x, y in zip(ours, other) if x.solved and y.solved]
    return f"{ratio(*zip(*both))} over {len(both)} runs"


def dtn_optimization(full: list, basic: list) -> tuple[bool, str]:
    """Whether the full variant's mean request count is at most the basic one's, and the
    verdict line `test_full_dtn_optimization_does_not_raise_overhead` prints for it."""
    full_eo = statistics.fmean([float(r.ereq_count) for r in full])
    basic_eo = statistics.fmean([float(r.ereq_count) for r in basic])
    ok = full_eo <= basic_eo
    return ok, (f"dtn optimization: {'PASS' if ok else 'FAIL'} - full {full_eo:.1f} vs basic "
                f"{basic_eo:.1f} requests per run (need full <= basic); "
                f"paired full/basic {eo_ratio(full, basic)}")
