"""Scenario assembly, per-run event loop, Monte Carlo batches, and parameter sweeps."""

from __future__ import annotations

import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .kernel import DELIVERY, FREEZE_POLL, LEG_END, TIMER, EventQueue, RandomStream
from .protocol import (CANCEL_TIMER, E_REQ, SET_TIMER, SOLVED, START_POLL, TRANSMIT,
                       EmergencyState, FloodingBehavior, LocateBehavior, ProtocolParams,
                       may_transmit)
from .radio import INTERFERENCE_COLLISION, RadioProfile, broadcast, collided, lora_profile
from .world import DRIFT_MARGIN, SPEED_MAX, Role, World

THREADS_ENV = "LOCATE_SIM_THREADS"

PROTOCOLS = ("locate", "locate-basic", "flooding", "probabilistic")

# movement check lattice while a carrier is frozen: ticks that cannot thaw it are skipped
POLL_PERIOD_S = 1.0

SOURCE_ID = 0


@dataclass(slots=True)
class ScenarioConfig:
    n: int = 40
    tau: float = 0.15
    protocol: str = "locate"
    side_m: float = 5000.0
    runs: int = 1000
    base_seed: int = 1
    horizon_s: float = 86400.0
    radio: RadioProfile = field(default_factory=lora_profile)
    params: ProtocolParams = field(default_factory=ProtocolParams)

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}, expected one of {PROTOCOLS}")
        if self.n < 0:
            raise ValueError(f"negative node count {self.n}")
        if not (0.0 <= self.tau <= 1.0):
            raise ValueError(f"solver fraction {self.tau} outside [0, 1]")
        if self.runs < 1:
            raise ValueError(f"run count {self.runs} must be at least 1")
        if self.base_seed < 0:  # random.Random seeds with |seed|: -1 would replay seed 1's runs
            raise ValueError(f"seed {self.base_seed} must be non-negative")
        for name in ("tau", "side_m", "horizon_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} {value} must be finite")
        if self.horizon_s <= 0.0:
            raise ValueError(f"horizon {self.horizon_s} must be positive")
        if self.side_m <= 0.0:
            raise ValueError(f"arena side {self.side_m} must be positive")


@dataclass(slots=True)
class RunResult:
    run_index: int
    seed: int
    solved: bool  # source received a reply
    ert_s: float | None  # time of the source's first reply, None when unsolved
    ereq_count: int  # request transmissions, all nodes (the overhead metric)
    erep_count: int  # reply transmissions, all nodes
    end_time_s: float


@dataclass(slots=True)
class Aggregate:
    runs_total: int
    runs_solved: int
    err_pct: float  # fraction of runs solved within the deadline, in [0, 1]
    ert_mean_s: float | None  # over solved runs
    ert_ci95_s: float | None  # half-width, absent with fewer than 2 solved runs
    eo_mean: float  # over all runs
    eo_ci95: float | None


def make_behavior(name: str, params: ProtocolParams):
    if name == "locate":
        return LocateBehavior(params, dtn_optimized=True)
    if name == "locate-basic":
        return LocateBehavior(params, dtn_optimized=False)
    if name == "flooding":
        return FloodingBehavior(params, relay_probability=None)
    if name == "probabilistic":
        return FloodingBehavior(params, relay_probability=params.q_flood)
    raise ValueError(f"unknown protocol {name!r}, expected one of {PROTOCOLS}")


def run_once(config: ScenarioConfig, run_index: int, world: World | None = None,
             trace: list | None = None) -> RunResult:
    """Simulate one emergency to resolution, quiescence, horizon, or queue exhaustion.

    The per-run seed is base_seed XOR run_index. A caller-supplied world skips
    random placement (the seed then drives only protocol timing and losses).
    When `trace` is given it collects ("phase", t, node, phase), ("tx", t,
    node, kind, ttl) and ("aware", t, node) tuples for inspection.

    Quiescence: no copy is in flight and no node may transmit again without
    hearing one (`protocol.may_transmit`), so the counts and the resolution
    time are final. In a world with a mobile node the queue would then hold
    only leg ends and idle ticks until the horizon, so the run stops with
    end_time_s = horizon_s; a static world stops with the event after which
    nothing could transmit.

    A frozen carrier thaws at the first tick of its 1 s poll lattice at which
    it is dtn_dist from its anchor. Each START_POLL carries the metres still
    left; no node outruns max(SPEED_MAX, its current leg speed), so the ticks
    before it could have gone that far are skipped rather than popped. The
    lattice is still built by repeated addition, so the tick that thaws it is
    the same float as with every tick popped. A node keeps at most one poll in
    the queue: one still armed is reused, and a solved carrier's leftover poll
    pops and does nothing.
    """
    seed = config.base_seed ^ run_index
    stream = RandomStream(seed)
    if world is None:
        world = World.random(config.n, config.tau, config.side_m, stream)
    else:
        world.forget_index()  # its legs may have been set by hand since its last run
    behavior = make_behavior(config.protocol, config.params)
    profile = config.radio
    airtime = profile.airtime_s
    collision = profile.interference == INTERFERENCE_COLLISION
    horizon = config.horizon_s

    queue = EventQueue()
    states: dict[int, EmergencyState] = {}
    polls: set[int] = set()  # nodes with a freeze poll in the queue
    busy: dict[int, list[tuple[float, float]]] = {}
    aware = {SOURCE_ID}
    waiting = {SOURCE_ID}  # aware and not yet solved
    in_flight = 0  # scheduled deliveries not yet popped
    able: set[int] = set()  # nodes for which may_transmit holds
    ereq_count = 0
    erep_count = 0
    ert: float | None = None

    def state_of(node: int) -> EmergencyState:
        st = states.get(node)
        if st is None:
            st = EmergencyState(node, world.nodes[node].role == Role.SOLVER, node == SOURCE_ID)
            states[node] = st
        return st

    def interpret(st: EmergencyState, acts: list[tuple], t: float) -> None:
        nonlocal ereq_count, erep_count, in_flight
        node = st.node
        for act in acts:
            op = act[0]
            if op == TRANSMIT:
                msg = act[1]
                if msg.kind == E_REQ:
                    ereq_count += 1
                else:
                    erep_count += 1
                if trace is not None:
                    trace.append(("tx", t, node, msg.kind, msg.ttl))
                end = t + airtime
                for receiver in broadcast(world, node, t, profile, stream):
                    in_flight += 1
                    queue.schedule(end, DELIVERY, receiver, msg)
                    if collision:
                        busy.setdefault(receiver, []).append((t, end))
            elif op == SET_TIMER:
                st.live[act[1]] = queue.schedule(t + act[2], TIMER, node, act[1])
            elif op == CANCEL_TIMER:
                queue.cancel(act[2])
            elif op == START_POLL:
                if node not in polls:
                    due = t + POLL_PERIOD_S
                    slack = act[1] - DRIFT_MARGIN
                    vmax = max(SPEED_MAX, world.nodes[node].leg.speed)
                    while (due - t) * vmax < slack and due <= horizon:
                        due += POLL_PERIOD_S
                    polls.add(node)
                    queue.schedule(due, FREEZE_POLL, node, None)
            else:
                raise RuntimeError(f"unknown action opcode {op}")
        # handlers change only their own node, so only its flags can have moved
        if st.phase == SOLVED:
            waiting.discard(node)
        if may_transmit(st):
            able.add(node)
        else:
            able.discard(node)

    mobile = False
    for rec in world.nodes:
        if not rec.stationary:
            mobile = True
            queue.schedule(rec.leg.end, LEG_END, rec.id, None)

    src = state_of(SOURCE_ID)
    interpret(src, behavior.start_emergency(src, 0.0, world.position_at(SOURCE_ID, 0.0), stream), 0.0)

    phase_seen: dict[int, int] = {}
    end_time = 0.0
    while True:
        if not able and not in_flight:
            # quiescent: leg ends alone would carry a mobile world to the horizon
            end_time = horizon if mobile else queue.now
            break
        t_next = queue.peek()
        if t_next is None:  # a drained queue is quiescent, so this only guards the pop
            end_time = queue.now
            break
        if t_next > horizon:
            end_time = horizon
            break
        ev = queue.pop()
        t = ev.time
        kind = ev.kind
        node = ev.node
        if kind == DELIVERY:
            in_flight -= 1
            msg = ev.data
            if collision and collided(busy[node], t - airtime, t):
                continue
            if msg.kind == E_REQ:
                if node not in aware:
                    aware.add(node)
                    waiting.add(node)  # dropped again below if the node is already solved
                    if trace is not None:
                        trace.append(("aware", t, node))
            elif node == SOURCE_ID and ert is None:
                ert = t
            st = state_of(node)
            interpret(st, behavior.on_delivery(st, msg, t, world.position_at(node, t), stream), t)
        elif kind == TIMER:
            st = state_of(node)
            interpret(st, behavior.on_timer(st, ev.data, t, world.position_at(node, t), stream), t)
        elif kind == LEG_END:
            leg = world.start_leg(node, t, stream)
            queue.schedule(leg.end, LEG_END, node, None)
            continue
        else:  # FREEZE_POLL
            polls.discard(node)
            st = state_of(node)
            interpret(st, behavior.on_freeze_poll(st, t, world.position_at(node, t), stream), t)
        if trace is not None and st.phase != phase_seen.get(node):
            phase_seen[node] = st.phase
            trace.append(("phase", t, node, st.phase))
        if not waiting:
            end_time = t  # everyone who heard of the emergency is done, including the source
            break

    return RunResult(run_index, seed, ert is not None, ert, ereq_count, erep_count, end_time)


def _run_indexed(args: tuple[ScenarioConfig, int]) -> RunResult:
    return run_once(args[0], args[1])


def requested_threads() -> int:
    """The LOCATE_SIM_THREADS cap, 0 when unset; ValueError unless a non-negative integer."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 0
    try:
        requested = int(raw)
    except ValueError as exc:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if requested < 0:
        raise ValueError(f"{THREADS_ENV} must be non-negative, got {requested}")
    return requested


def worker_count(runs: int) -> int:
    """Worker pool size: LOCATE_SIM_THREADS caps it, 0 or unset means auto."""
    requested = requested_threads()
    if requested == 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, runs))


def run_batches(configs: list[ScenarioConfig], workers: int | None = None
                ) -> list[tuple[list[RunResult], Aggregate]]:
    """All runs of every config on one pool: per config, in config order, its runs
    in run-index order plus their aggregate."""
    tasks = [(cfg, i) for cfg in configs for i in range(cfg.runs)]
    if workers is None:
        workers = worker_count(len(tasks))
    if workers <= 1 or len(tasks) == 1:
        flat = [run_once(cfg, i) for cfg, i in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map keeps task order, so the results match a serial loop
            flat = list(pool.map(_run_indexed, tasks,
                                 chunksize=max(1, len(tasks) // (workers * 4))))
    batches = []
    start = 0
    for cfg in configs:
        results = flat[start:start + cfg.runs]
        start += cfg.runs
        batches.append((results, aggregate(results, cfg.params.e_thr_s)))
    return batches


def run_batch(config: ScenarioConfig, workers: int | None = None) -> tuple[list[RunResult], Aggregate]:
    """All runs of a config, in run-index order, plus their aggregate."""
    return run_batches([config], workers)[0]


def aggregate(results: list[RunResult], e_thr_s: float) -> Aggregate:
    """Success ratio, resolution-time stats over solved runs, overhead stats over all runs."""
    if not results:
        raise ValueError("cannot aggregate an empty result list")
    solved = [r for r in results if r.solved]
    within = sum(1 for r in solved if r.ert_s <= e_thr_s)
    erts = [r.ert_s for r in solved]
    eos = [float(r.ereq_count) for r in results]
    ert_mean, ert_ci = _mean_ci(erts)
    eo_mean, eo_ci = _mean_ci(eos)
    return Aggregate(len(results), len(solved), within / len(results),
                     ert_mean, ert_ci, eo_mean, eo_ci)


def _mean_ci(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, None
    half = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
    return mean, half


@dataclass(slots=True)
class SweepRow:
    protocol: str
    n: int
    tau: float
    p_start: float
    results: list[RunResult]
    agg: Aggregate


SWEEP_AXES = ("tau", "n", "p_start")


def sweep_points(config: ScenarioConfig, axis: str, values: list[float],
                 protocols: list[str] | None = None) -> list[ScenarioConfig]:
    """The config of every (protocol, axis value) point, in row order.

    Raises ValueError for a bad axis or value, before anything is simulated.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}, expected one of {SWEEP_AXES}")
    if not values:
        raise ValueError("sweep needs at least one axis value")
    return [_at_point(config, name, axis, value)
            for name in protocols or [config.protocol] for value in values]


def sweep(config: ScenarioConfig, axis: str, values: list[float],
          protocols: list[str] | None = None) -> list[SweepRow]:
    """A row per (protocol, axis value), every point's runs on one pool; all rows
    share the base seed.

    Sharing seeds gives every row the same sequence of worlds, so protocol
    comparisons at a point are paired rather than independent.
    """
    points = sweep_points(config, axis, values, protocols)
    return [SweepRow(cfg.protocol, cfg.n, cfg.tau, cfg.params.p_start, results, agg)
            for cfg, (results, agg) in zip(points, run_batches(points))]


def _at_point(config: ScenarioConfig, protocol_name: str, axis: str, value: float) -> ScenarioConfig:
    if axis == "tau":
        return replace(config, protocol=protocol_name, tau=float(value))
    if axis == "n":
        if not float(value).is_integer():
            raise ValueError(f"node count must be an integer, got {value}")
        return replace(config, protocol=protocol_name, n=int(value))
    return replace(config, protocol=protocol_name,
                   params=replace(config.params, p_start=float(value)))
