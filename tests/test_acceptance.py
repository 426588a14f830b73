"""Acceptance gate: one test per release criterion, 200 runs per data point.

Every Monte Carlo point shares base seed 1, a 5 km x 5 km arena, and the
default protocol parameters. Schemes at one point share node placement, roles
and initial legs, but later leg draws share each run's stream with the scheme's
own draws, so comparisons are only partly paired: the paired correlation is
0.79 for criterion 4's overhead and 0.35 for criterion 5's resolution time.
Each test prints a single criterion verdict line with the measured numbers;
a comparative one adds its paired ratio with a 95% interval (`paired.py`).
"""

import math

from locatesim.cli import main, selftest_report
from locatesim.experiments import Aggregate, RunResult, ScenarioConfig, run_batch, run_once
from locatesim.kernel import RandomStream
from locatesim.protocol import (DTN_ACTIVE, E_REQ, SOLVED, ProtocolParams,
                                acceptance_window, forwarding_window)
from locatesim.radio import lora_profile, wifi_profile
from locatesim.world import World

from paired import eo_ratio, ert_ratio
from topologies import line_world

RUNS = 200
SEED = 1
TAUS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)

_CACHE: dict[tuple, tuple[list[RunResult], Aggregate]] = {}


def batch(protocol: str = "locate", n: int = 40, tau: float = 0.15,
          radio: str = "lora", **params) -> tuple[list[RunResult], Aggregate]:
    """Runs and aggregate of one cached Monte Carlo point."""
    key = (protocol, n, tau, radio, tuple(sorted(params.items())))
    if key not in _CACHE:
        cfg = ScenarioConfig(
            protocol=protocol, n=n, tau=tau, runs=RUNS, base_seed=SEED,
            radio=wifi_profile() if radio == "wifi" else lora_profile(),
            params=ProtocolParams(**params))
        _CACHE[key] = run_batch(cfg)
    return _CACHE[key]


def point(*args, **kwargs) -> Aggregate:
    """Aggregate for one cached Monte Carlo point."""
    return batch(*args, **kwargs)[1]


def runs(*args, **kwargs) -> list[RunResult]:
    """Results of one cached Monte Carlo point, in run order."""
    return batch(*args, **kwargs)[0]


def ci_gap(ours: Aggregate, other: Aggregate) -> float:
    """Criterion 2's interval gap: the lower end of `other`'s 95% interval of resolution
    time minus the upper end of `ours`'s (> 0: the intervals do not touch)."""
    return (other.ert_mean_s - other.ert_ci95_s) - (ours.ert_mean_s + ours.ert_ci95_s)


def sparse_ratio() -> float:
    """Criterion 5's number: locate's mean resolution time over flooding's at n=5."""
    return point("locate", n=5).ert_mean_s / point("flooding", n=5).ert_mean_s


def carry_probability_effect() -> tuple[float, bool]:
    """Criterion 7's numbers: the relative shift in mean resolution time from the default
    carry probability to 0.8, and whether the overhead rises with it."""
    low, high = point("locate"), point("locate", p_start=0.8)
    return abs(high.ert_mean_s - low.ert_mean_s) / low.ert_mean_s, high.eo_mean > low.eo_mean


def verdict(num: int, ok: bool, details: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {details}")
    assert ok, f"criterion {num}: {details}"


def test_c1_closed_form_values_match_frozen_references():
    ok, lines = selftest_report()
    bad = [line for line in lines if not line.startswith("ok")]
    verdict(1, ok, f"{len(lines)} formula checks within 1e-9" if ok else "; ".join(bad))


def test_c2_locate_resolves_faster_than_flooding_and_probabilistic():
    problems = []
    gaps = []
    paired = []
    for tau in TAUS:
        ours = point("locate", tau=tau)
        for name in ("flooding", "probabilistic"):
            other = point(name, tau=tau)
            if ours.ert_mean_s is None or other.ert_mean_s is None:
                problems.append(f"tau={tau:.2f}: no solved runs vs {name}")
                continue
            if not ours.ert_mean_s < other.ert_mean_s:
                problems.append(f"tau={tau:.2f}: {ours.ert_mean_s:.0f}s not below "
                                f"{name} {other.ert_mean_s:.0f}s")
            if tau <= 0.15:
                # the 95% intervals must not touch in the sparse regime
                gap = ci_gap(ours, other)
                gaps.append(f"{name[:5]}@{tau:.2f} +{gap:.0f}s")
                paired.append(f"{name[:5]}@{tau:.2f} "
                              f"{ert_ratio(runs('locate', tau=tau), runs(name, tau=tau))}")
                if gap <= 0.0:
                    problems.append(f"tau={tau:.2f}: CI overlap vs {name} ({gap:.0f}s)")
    verdict(2, not problems,
            ("; ".join(problems) if problems
             else f"fastest at all {len(TAUS)} solver fractions, CI gaps {', '.join(gaps)}")
            + f"; paired locate/other resolution time {', '.join(paired)}")


def test_c3_success_rate_with_many_solvers():
    agg = point("locate", tau=0.30)
    verdict(3, agg.err_pct >= 0.90,
            f"resolution rate {agg.err_pct:.3f} at tau=0.30 (need >= 0.90)")


def test_c4_carry_management_cuts_overhead_but_stays_near_flooding():
    full = point("locate")
    basic = point("locate-basic")
    flood = point("flooding")
    ratio = basic.eo_mean / full.eo_mean
    flood_ratio = full.eo_mean / flood.eo_mean
    saves = ratio >= 1.2
    bounded = flood_ratio <= 3.0
    verdict(4, saves and bounded,
            f"basic/full overhead {ratio:.3f} (need >= 1.2, basic {basic.eo_mean:.1f} "
            f"vs full {full.eo_mean:.1f}); full/flooding {flood_ratio:.2f} (need <= 3); "
            f"paired basic/full {eo_ratio(runs('locate-basic'), runs('locate'))}, "
            f"full/flooding {eo_ratio(runs('locate'), runs('flooding'))}")


def test_c5_sparse_network_speedup_over_flooding():
    ours = point("locate", n=5)
    flood = point("flooding", n=5)
    ratio = sparse_ratio()
    verdict(5, ratio <= 0.7,
            f"resolution-time ratio {ratio:.3f} at n=5 (need <= 0.7, "
            f"locate {ours.ert_mean_s:.0f}s vs flooding {flood.ert_mean_s:.0f}s); "
            f"paired {ert_ratio(runs('locate', n=5), runs('flooding', n=5))}")


def test_c6_short_range_radio_is_slower_and_less_reliable():
    long_range = point("locate")
    short_range = point("locate", radio="wifi")
    slower = short_range.ert_mean_s > long_range.ert_mean_s
    weaker = short_range.err_pct < long_range.err_pct
    verdict(6, slower and weaker,
            f"100 m radio: {short_range.ert_mean_s:.0f}s/{short_range.err_pct:.3f} "
            f"vs 500 m: {long_range.ert_mean_s:.0f}s/{long_range.err_pct:.3f}")


def test_c7_carry_probability_trades_overhead_not_latency():
    low = point("locate")
    high = point("locate", p_start=0.8)
    deviation, rises = carry_probability_effect()
    verdict(7, deviation <= 0.15 and rises,
            f"resolution-time shift {deviation:.3f} (need <= 0.15); overhead "
            f"{high.eo_mean:.1f} > {low.eo_mean:.1f} at the higher carry probability; "
            f"paired high/low resolution time "
            f"{ert_ratio(runs('locate', p_start=0.8), runs('locate'))}, "
            f"overhead {eo_ratio(runs('locate', p_start=0.8), runs('locate'))}")


def test_c8_identical_seeds_give_byte_identical_outputs(tmp_path):
    args = ["run", "--protocol", "locate", "--n", "12", "--tau", "0.25",
            "--runs", "30", "--seed", "7", "--horizon", "20000"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    same_runs = (first / "runs.csv").read_bytes() == (second / "runs.csv").read_bytes()
    same_agg = ((first / "aggregate.csv").read_bytes()
                == (second / "aggregate.csv").read_bytes())
    verdict(8, same_runs and same_agg,
            f"runs.csv identical: {same_runs}, aggregate.csv identical: {same_agg}")


def _window_properties(failures: list) -> None:
    p = ProtocolParams()
    prev_acc, prev_fwd = -math.inf, math.inf
    for i in range(1001):
        d = 5000.0 * i / 1000.0
        acc = acceptance_window(d, p)
        fwd = forwarding_window(d, p)
        if not math.isclose(acc + fwd, p.cw_max_s, rel_tol=1e-9):
            failures.append(f"window complement broken at d={d}")
            return
        if acc <= prev_acc or fwd >= prev_fwd:
            failures.append(f"window monotonicity broken at d={d}")
            return
        prev_acc, prev_fwd = acc, fwd


def _trace_properties(failures: list) -> None:
    trace = []
    cfg = ScenarioConfig(n=14, tau=0.2, side_m=2500.0, runs=1, base_seed=5,
                         horizon_s=2500.0)
    run_once(cfg, 1, trace=trace)
    solved_at: dict[int, float] = {}
    aware: set[int] = set()
    for entry in trace:
        kind, t, node = entry[0], entry[1], entry[2]
        if node in solved_at and kind == "phase":
            failures.append(f"node {node} changed phase after resolution at t={t:.1f}")
            return
        if kind == "phase" and entry[3] == SOLVED:
            solved_at[node] = t
        elif kind == "aware":
            if node in aware:
                failures.append(f"node {node} reported aware twice")
                return
            aware.add(node)
        elif kind == "tx":
            if entry[3] == E_REQ and node in solved_at:
                failures.append(f"node {node} rebroadcast the request when solved")
                return
            if not 0 <= entry[4] <= cfg.params.ttl_init:
                failures.append(f"hop budget {entry[4]} outside [0, {cfg.params.ttl_init}]")
                return
    if not solved_at:
        failures.append("trace run never resolved; absorbing-state check is empty")


def _containment_property(failures: list) -> None:
    stream = RandomStream(9)
    world = World.random(40, 0.15, 5000.0, stream)
    for rec in world.nodes:
        if rec.stationary:
            continue
        for _ in range(12):
            leg = rec.leg
            for k in range(5):
                t = leg.start + (leg.end - leg.start) * k / 4.0
                x, y = world.position_at(rec.id, t)
                if not (0.0 <= x <= 5000.0 and 0.0 <= y <= 5000.0):
                    failures.append(f"node {rec.id} left the arena: ({x}, {y})")
                    return
            world.start_leg(rec.id, leg.end, stream)


def _line_topology_property(failures: list) -> None:
    cfg = ScenarioConfig(n=2, tau=0.5, runs=1, base_seed=SEED, horizon_s=3600.0)
    for idx in range(5):
        trace = []
        res = run_once(cfg, idx, world=line_world(), trace=trace)
        relay = [e[3] for e in trace if e[0] == "phase" and e[2] == 1]
        if not res.solved or relay != [1, 2, 3, SOLVED]:
            failures.append(f"line topology run {idx}: relay phases {relay}, "
                            f"solved={res.solved} (expected 1, 2, {DTN_ACTIVE}, {SOLVED})")
            return


def test_c9_protocol_invariants_hold():
    failures: list = []
    _window_properties(failures)
    _trace_properties(failures)
    _containment_property(failures)
    _line_topology_property(failures)
    verdict(9, not failures,
            "; ".join(failures) if failures
            else "window complement and monotonicity, absorbing resolution, "
                 "one-way awareness, arena containment, bounded hop budgets, "
                 "and the 3-node relay phase ladder all hold")
