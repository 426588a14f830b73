"""Rerun the release gate's comparative verdicts on disjoint 200-run samples.

Each verdict of `tests/test_acceptance.py` rests on one 200-run sample at base
seed 1. Run i uses seed `base_seed XOR i`, so base seeds that differ only below
the run count replay the same runs; 1, 2**20, 2**21 and 3 * 2**20 give disjoint
samples. For each of these base seeds this prints the verdict lines of criteria
2, 3, 4, 5 and 7 and of `test_full_dtn_optimization_does_not_raise_overhead`,
then one table of the numbers each verdict turns on. Lines and numbers come from
the gate's own functions (`tests/test_acceptance.py`, `tests/paired.py`), so at
base seed 1 the lines are the ones the tier-1 suite prints. It takes about as
long as the gate's points, per base seed.

    python3 scripts/replicate_gate.py

This script reports; it is not a test, and it changes no threshold.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance as gate  # noqa: E402
from paired import dtn_optimization, eo_ratio  # noqa: E402

SEEDS = (1, 2**20, 2**21, 3 * 2**20)
CRITERIA = (gate.test_c2_locate_resolves_faster_than_flooding_and_probabilistic,
            gate.test_c3_success_rate_with_many_solvers,
            gate.test_c4_carry_management_cuts_overhead_but_stays_near_flooding,
            gate.test_c5_sparse_network_speedup_over_flooding,
            gate.test_c7_carry_probability_trades_overhead_not_latency)
ROWS = ("c2 at tau 0.15: the CI gap against flooding (must be > 0)",
        "c4 basic/full, paired 95% interval (needs >= 1.2)",
        "third red test, full eo <= basic eo",
        "c5 ratio at n=5 (needs <= 0.7)",
        "c7 resolution-time shift <= 0.15, and eo rises with p_start",
        "c3 err_pct at tau 0.30 (needs >= 0.90)")


def verdict_lines(seed: int) -> list[str]:
    """The gate's verdict lines at one base seed; its cached points stay for the table."""
    gate.SEED = seed
    gate._CACHE.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for check in CRITERIA:
            try:
                check()
            except AssertionError:
                pass  # the verdict line is already printed
    # the third red test runs the gate's own point (n=40, tau 0.15, 200 runs)
    print(dtn_optimization(gate.runs("locate"), gate.runs("locate-basic"))[1], file=out)
    return out.getvalue().splitlines()


def table_column() -> list[str]:
    """The numbers behind each row of the table, from the points cached at one seed."""
    gap = gate.ci_gap(gate.point("locate"), gate.point("flooding"))
    full_wins, _ = dtn_optimization(gate.runs("locate"), gate.runs("locate-basic"))
    shift, rises = gate.carry_probability_effect()
    return [f"{gap:+.0f} s",
            eo_ratio(gate.runs("locate-basic"), gate.runs("locate")),
            "passes" if full_wins else "fails",
            f"{gate.sparse_ratio():.3f}",
            f"{shift:.3f}, {'rises' if rises else 'falls'}",
            f"{gate.point('locate', tau=0.30).err_pct:.3f}"]


def main() -> int:
    columns = []
    for seed in SEEDS:
        print(f"base seed {seed}")
        for line in verdict_lines(seed):
            print(f"  {line}")
        columns.append(table_column())
        sys.stdout.flush()
    print()
    print("| verdict | " + " | ".join(f"seed {seed}" for seed in SEEDS) + " |")
    print("|---" * (len(SEEDS) + 1) + "|")
    for i, row in enumerate(ROWS):
        print(f"| {row} | " + " | ".join(column[i] for column in columns) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
