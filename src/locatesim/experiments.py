"""Scenario assembly, per-run event loop, Monte Carlo batches, and parameter sweeps."""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, replace

from .kernel import DELIVERY, FREEZE_POLL, LEG_END, TIMER, EventQueue, RandomStream
from .protocol import (CANCEL_TIMER, E_REQ, POLL, SET_TIMER, SOLVED, START_POLL, TRANSMIT,
                       EmergencyState, FloodingBehavior, LocateBehavior, ProtocolParams,
                       may_transmit)
from .radio import INTERFERENCE_COLLISION, RadioProfile, broadcast, lora_profile
from .world import DRIFT_MARGIN, SPEED_MAX, Role, World

THREADS_ENV = "LOCATE_SIM_THREADS"


def __getattr__(name: str):
    # the pool pulls in multiprocessing: load it with the first pooled batch, not at import
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# protocol name -> factory of its behavior; the order is the CLI's
_BEHAVIORS = {
    "locate": lambda p: LocateBehavior(p, dtn_optimized=True),
    "locate-basic": lambda p: LocateBehavior(p, dtn_optimized=False),
    "flooding": lambda p: FloodingBehavior(p, gated=False),
    "probabilistic": lambda p: FloodingBehavior(p, gated=True),
}
PROTOCOLS = tuple(_BEHAVIORS)

# movement check lattice while a carrier is frozen: ticks that cannot thaw it are skipped
POLL_PERIOD_S = 1.0

SOURCE_ID = 0

CHUNK_MAX = 64  # tasks per pool chunk at most (run_batches)


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
        # a leg lasts about side / speed: once that is below the clock's resolution, leg
        # ends repeat at one time and the run never ends; 1 m is the radio index's least skin
        if self.side_m < DRIFT_MARGIN:
            raise ValueError(f"arena side {self.side_m} must be at least {DRIFT_MARGIN} m")
        # a beacon period averages at least cw_max / 2: the source expects under ~2e6 beacons
        if self.horizon_s > 1e6 * self.params.cw_max_s:
            raise ValueError(f"horizon {self.horizon_s} s exceeds 1e6 contention windows "
                             f"(cw_max {self.params.cw_max_s} s)")
        # a frozen carrier's poll walks the lattice toward its thawing tick one addition
        # at a time, which past 2**53 s no longer advances
        if self.horizon_s > 1e6 * POLL_PERIOD_S:
            raise ValueError(f"horizon {self.horizon_s} s exceeds 1e6 poll periods "
                             f"({POLL_PERIOD_S} s)")


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


def run_once(config: ScenarioConfig, run_index: int, world: World | None = None,
             trace: list | None = None) -> RunResult:
    """Simulate one emergency to resolution, quiescence, or horizon.

    The per-run seed is base_seed XOR run_index. A caller-supplied world skips
    random placement (the seed then drives only protocol timing and losses).
    When `trace` is given it collects ("phase", t, node, phase), ("tx", t,
    node, kind, ttl) and ("aware", t, node) tuples for inspection.

    Quiescence: no copy is in flight and no node may transmit again without
    hearing one (`protocol.may_transmit`), so the counts and the resolution
    time are final. In a world with a mobile node the queue would then hold
    only leg ends and idle ticks until the horizon, so the run stops with
    end_time_s = horizon_s; a static world stops with the event after which
    nothing could transmit. Each node that may transmit has a timer in `live`,
    and each is queued, so the queue cannot drain first (a `may_transmit`
    patched to always hold can drain it, which ends the run at the horizon).
    A LEG_END is queued only if its leg ends by the horizon: a later one could
    never pop, and leaving it out reorders nothing, as ties break on a
    monotone insertion sequence. The placement leg ends enter the queue in
    node order at its construction, one heap build that numbers them as the
    same `schedule` calls would; each later leg end is scheduled as it is drawn.

    A frozen carrier thaws at the first tick of its 1 s poll lattice at which
    it is dtn_dist from its anchor. START_POLL carries the metres still left
    and arms the node's POLL slot at the first tick it could reach: no node
    outruns max(SPEED_MAX, its current leg speed). The lattice is still built
    by repeated addition, so the thawing tick is the same float as with every
    tick popped. A carrier that cannot reach that tick by the horizon skips the
    walk: its poll is armed at horizon + POLL_PERIOD_S instead, past the horizon
    like the tick the walk would have stopped at, so it never pops either.

    Every node an event reaches takes one path: a DELIVERY supplies its
    receivers in `broadcast`'s order, a TIMER or FREEZE_POLL its own node (a
    LEG_END only starts the next leg). Per node, the state is looked up once;
    a delivery drops a collided copy, marks awareness or the source's first
    reply, and skips an ignored request copy (below); then the handler is
    called, its actions interpreted and a phase change recorded, and the walk
    stops once no aware node is unsolved. Every exit is tested at the loop
    top, between events.

    A request copy to an aware node for which the behavior's `ignores_request`
    holds stops after the awareness bookkeeping, traced or not. The predicate
    has two rules per behavior, each naming copies whose handler would draw
    nothing, change no field and return no action: every copy to the source,
    and in `locate` and `locate-basic` a carrier (active or frozen) whose copy
    is no fresher than its stored one and, in `locate`, from a carrier it has
    overheard, or in the baselines a relay past its one relay decision and not
    solved. Skipping its position, handler and interpretation leaves every
    result as it was: its `waiting` and `able` flags move only with its state.
    A skipped copy still logs the phase entry its node owes, as the handler
    tail would: only the source can owe one, its DTN_ACTIVE from
    `start_emergency`. The predicate is bound once per run from the behavior,
    so a test can patch it off on the class.

    A timer that pops for a node outside `able` is a spent carry tick: by
    `protocol.may_transmit`, the DTN tick of a non-source carrier in
    DTN_ACTIVE whose stored request has no hop budget (a poll pops as a
    FREEZE_POLL; baselines never have one). It re-arms at t plus the period
    that `LocateBehavior.carry_tick` draws after the coin, as `on_timer`
    would. That is exact: the same two draws happen at the same event, the
    tick changes no phase, and `waiting` and `able` cannot move without a
    change of state. Patching `may_transmit` to always hold turns off both
    this path and the quiescence exit.

    Collisions: a copy is dropped if another frame its receiver hears overlaps
    it, endpoints included. All frames last `airtime` and are recorded as sent,
    so a receiver's reception ends never decrease; it keeps the last two,
    `prev_end` and `last_end`. All have started when a copy lands, so the copy
    sent at `sent` is overlapped iff two ends (its own included) reach `sent`:
    iff `prev_end >= sent`. A zero-delay reply starts as a copy lands but is
    sent by a later event, so only the reply's own copy is dropped.

    A broadcast that reaches anyone is one DELIVERY event at t + airtime.
    This is exactly one event per copy: such copies would share the time and
    take consecutive insertion numbers, so nothing could pop between them, an
    event scheduled while they are handled (a zero-delay reply) pops after
    all of them, and the quiescence check, made only between events, counts
    the DELIVERY events pending (`in_flight`).
    """
    seed = config.base_seed ^ run_index
    stream = RandomStream(seed)
    if world is None:
        world = World.random(config.n, config.tau, config.side_m, stream)
    else:
        world.forget_index()  # its legs may have been set by hand since its last run
    behavior = _BEHAVIORS[config.protocol](config.params)
    profile = config.radio
    airtime = profile.airtime_s
    collision = profile.interference == INTERFERENCE_COLLISION
    horizon = config.horizon_s

    # the placement leg ends that end by the horizon, in node order, in one heap build
    mobile = False
    leg_ends = []
    for rec in world.nodes:
        if not rec.stationary:
            mobile = True
            if rec.leg.end <= horizon:
                leg_ends.append((rec.leg.end, LEG_END, rec.id, None))
    queue = EventQueue(leg_ends)
    # bound once per run, after any wrapper a caller has put on the classes
    schedule = queue.schedule
    peek = queue.peek
    pop = queue.pop
    position_at = world.position_at
    on_delivery = behavior.on_delivery
    on_timer = behavior.on_timer
    on_freeze_poll = behavior.on_freeze_poll
    ignores_request = behavior.ignores_request
    carry_tick = getattr(behavior, "carry_tick", None)  # a baseline never has a spent tick
    states: dict[int, EmergencyState] = {}
    prev_end = [-math.inf] * len(world.nodes)  # per receiver id (collisions, above)
    last_end = prev_end[:]
    aware = {SOURCE_ID}
    waiting = {SOURCE_ID}  # aware and not yet solved
    in_flight = 0  # DELIVERY events scheduled and not yet popped
    able: set[int] = set()  # nodes for which may_transmit holds
    ereq_count = 0
    erep_count = 0
    ert: float | None = None

    def interpret(st: EmergencyState, acts: list[tuple], t: float) -> None:
        nonlocal ereq_count, erep_count, in_flight
        node = st.node
        for act in acts:
            op = act[0]
            if op == SET_TIMER:  # the commonest action
                st.live[act[1]] = schedule(t + act[2], TIMER, node, act[1])
            elif op == TRANSMIT:
                msg = act[1]
                if msg.kind == E_REQ:
                    ereq_count += 1
                else:
                    erep_count += 1
                if trace is not None:
                    trace.append(("tx", t, node, msg.kind, msg.ttl))
                receivers = broadcast(world, node, t, profile, stream)
                if receivers:
                    end = t + airtime
                    in_flight += 1
                    schedule(end, DELIVERY, node, (msg, receivers))
                    if collision:
                        for receiver in receivers:
                            prev_end[receiver] = last_end[receiver]
                            last_end[receiver] = end
            elif op == CANCEL_TIMER:
                queue.cancel(act[2])
            elif op == START_POLL:
                due = t + POLL_PERIOD_S
                slack = act[1] - DRIFT_MARGIN
                vmax = max(SPEED_MAX, world.nodes[node].leg.speed)
                if (horizon - t) * vmax < slack:
                    # every tick up to the horizon fails the walk's first test, which only
                    # grows with due: the poll can never pop, so it waits past the horizon
                    due = horizon + POLL_PERIOD_S
                else:
                    while (due - t) * vmax < slack and due <= horizon:
                        due += POLL_PERIOD_S
                st.live[POLL] = schedule(due, FREEZE_POLL, node, None)
            else:
                raise RuntimeError(f"unknown action opcode {op}")
        # handlers change only their own node, so only its flags can have moved
        if st.phase == SOLVED:
            waiting.discard(node)
        if may_transmit(st):
            able.add(node)
        else:
            able.discard(node)

    src = states[SOURCE_ID] = EmergencyState(
        SOURCE_ID, world.nodes[SOURCE_ID].role == Role.SOLVER, True)
    interpret(src, behavior.start_emergency(src, 0.0, position_at(SOURCE_ID, 0.0), stream), 0.0)

    phase_seen: dict[int, int] = {}
    while True:
        if not waiting:  # everyone who heard of the emergency is done, the source included
            end_time = queue.now
            break
        if not able and not in_flight:
            # quiescent: leg ends alone would carry a mobile world to the horizon
            end_time = horizon if mobile else queue.now
            break
        # drained only if may_transmit is patched: a node in `able` has a timer in `live`
        nxt = peek()
        if nxt is None or nxt > horizon:
            end_time = horizon
            break
        t, kind, node, data = pop()
        if kind == TIMER and node not in able:
            # a spent carry tick (see may_transmit): the handler's two draws and the re-arm of
            # its slot (data, DTN) are all it would do
            st = states[node]
            st.live[data] = schedule(t + carry_tick(st, t, stream)[1], TIMER, node, data)
            continue
        if kind == LEG_END:
            leg = world.start_leg(node, t, stream)
            if leg.end <= horizon:
                schedule(leg.end, LEG_END, node, None)
            continue
        delivery = kind == DELIVERY
        if delivery:
            msg, nodes = data  # the receivers, in broadcast's order
            in_flight -= 1
            request = msg.kind == E_REQ
            sent = t - airtime
        else:
            nodes = (node,)
        for node in nodes:
            st = states.get(node)
            if delivery:
                if collision and prev_end[node] >= sent:
                    continue
                if request:
                    if node not in aware:
                        aware.add(node)
                        waiting.add(node)  # dropped again below if the node is already solved
                        if trace is not None:
                            trace.append(("aware", t, node))
                    elif ignores_request(st, msg):  # an aware node has a state
                        # its handler would draw and change nothing; only the source can
                        # still owe a phase entry, DTN_ACTIVE from start_emergency
                        if trace is not None and st.phase != phase_seen.get(node):
                            phase_seen[node] = st.phase
                            trace.append(("phase", t, node, st.phase))
                        continue
                elif node == SOURCE_ID and ert is None:
                    ert = t
            if st is None:
                st = states[node] = EmergencyState(node, world.nodes[node].role == Role.SOLVER,
                                                   node == SOURCE_ID)
            pos = position_at(node, t)
            if delivery:
                acts = on_delivery(st, msg, t, pos, stream)
            elif kind == TIMER:
                acts = on_timer(st, data, t, pos, stream)
            else:
                acts = on_freeze_poll(st, t, pos, stream)
            interpret(st, acts, t)
            if trace is not None and st.phase != phase_seen.get(node):
                phase_seen[node] = st.phase
                trace.append(("phase", t, node, st.phase))
            if not waiting:
                break

    return RunResult(run_index, seed, ert is not None, ert, ereq_count, erep_count, end_time)


def _run_indexed(args: tuple[ScenarioConfig, int]) -> RunResult:
    return run_once(args[0], args[1])


def worker_count(runs: int) -> int:
    """Worker pool size for `runs` runs: LOCATE_SIM_THREADS caps it, 0 or unset means one
    per CPU this process may run on. ValueError unless the variable is a non-negative
    integer."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    try:
        requested = int(raw or 0)
    except ValueError as exc:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if requested < 0:
        raise ValueError(f"{THREADS_ENV} must be non-negative, got {requested}")
    if not requested:
        # the affinity mask, where the platform has one, not every CPU of the host
        affinity = getattr(os, "sched_getaffinity", None)
        requested = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(requested, runs))


def run_batches(configs: list[ScenarioConfig]) -> list[tuple[list[RunResult], Aggregate]]:
    """All runs of every config on one pool: per config, in config order, its runs
    in run-index order plus their aggregate."""
    tasks = [(cfg, i) for cfg in configs for i in range(cfg.runs)]
    workers = worker_count(len(tasks))
    if workers <= 1:
        flat = [run_once(cfg, i) for cfg, i in tasks]
    else:
        # looked up through the module, so a class patched onto it (tests, tracers) is the one used
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers) as pool:
            # map keeps task order, so the results match a serial loop. Adjacent tasks mostly
            # share a point and points cost unequal amounts, so chunks are capped: a few
            # large chunks would leave one worker idle while another finishes its point
            chunksize = min(CHUNK_MAX, max(1, len(tasks) // (workers * 4)))
            flat = list(pool.map(_run_indexed, tasks, chunksize=chunksize))
    batches = []
    start = 0
    for cfg in configs:
        results = flat[start:start + cfg.runs]
        start += cfg.runs
        batches.append((results, aggregate(results, cfg.params.e_thr_s)))
    return batches


def run_batch(config: ScenarioConfig) -> tuple[list[RunResult], Aggregate]:
    """All runs of a config, in run-index order, plus their aggregate."""
    return run_batches([config])[0]


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
    import statistics  # loaded with the first aggregate, not at import
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


def sweep(points: list[ScenarioConfig]) -> list[SweepRow]:
    """A row per config of `points`, in order, every point's runs on one pool.

    `run` is the one-point sweep `[config]`; `sweep_points` builds an axis sweep's
    points, which share the base seed. Sharing seeds gives every row the same node
    placement, roles and initial legs; later leg draws share the run stream with the
    protocol's draws, so protocol comparisons at a point are only partly paired.
    """
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
