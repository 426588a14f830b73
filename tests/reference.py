"""A plain reference runner: the model `experiments.run_once` specifies, without its shortcuts.

It shares the world (placement, legs, positions), the behaviours, `RandomStream`,
`pdr` and `distance` with the package, and nothing else. Its own heapq list holds one
DELIVERY event per copy. A transmission tests every node in id order: in range, then
a loss coin only where 0 < pdr < 1. Under collisions each receiver keeps the frames
it has been sent and drops a copy that another of them overlaps, endpoints included.
Every leg end is queued, a frozen carrier's poll pops at every 1 s tick, every event
goes to its handler, and a run ends only at resolution or the horizon.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import replace

from locatesim.experiments import RunResult, ScenarioConfig, run_once
from locatesim.kernel import RandomStream
from locatesim.protocol import (CANCEL_TIMER, E_REP, E_REQ, POLL, SET_TIMER, SOLVED, TRANSMIT,
                                EmergencyState, FloodingBehavior, LocateBehavior)
from locatesim.radio import INTERFERENCE_COLLISION, RadioProfile, pdr
from locatesim.world import Role, World, distance

BEHAVIORS = {
    "locate": lambda p: LocateBehavior(p, dtn_optimized=True),
    "locate-basic": lambda p: LocateBehavior(p, dtn_optimized=False),
    "flooding": lambda p: FloodingBehavior(p, gated=False),
    "probabilistic": lambda p: FloodingBehavior(p, gated=True),
}
TICK_S = 1.0  # a frozen carrier checks how far it has moved once a second
SOURCE = 0
TIMER, DELIVERY, LEG_END, TICK = range(4)


def receivers(world: World, node: int, t: float, radio: RadioProfile,
              stream: RandomStream) -> list[int]:
    """Ids, ascending, of the nodes that hear `node` transmit at t, every node tested."""
    here = world.position_at(node, t)
    heard = []
    for rec in world.nodes:
        d = distance(here, world.position_at(rec.id, t))
        if rec.id != node and d <= radio.range_m:
            p = pdr(d, radio)
            if p >= 1.0 or (p > 0.0 and stream.bernoulli(p)):
                heard.append(rec.id)
    return heard


def collided(frames: list[tuple[float, float]], start: float, end: float) -> bool:
    """Whether a frame sent to the receiver overlaps the copy's [start, end], endpoints
    included; `frames` holds those sent so far, the copy's own included. Frames that
    ended before `start` are dropped, as they can overlap no later copy."""
    frames[:] = [f for f in frames if f[1] >= start]
    return sum(1 for s, _ in frames if s <= end) > 1  # the copy's own frame is one


def run(config: ScenarioConfig, run_index: int, world: World | None = None,
        trace: list | None = None) -> RunResult:
    """One run of `config`, traced as `run_once` traces it when `trace` is given."""
    seed = config.base_seed ^ run_index
    stream = RandomStream(seed)
    if world is None:
        world = World.random(config.n, config.tau, config.side_m, stream)
    behavior = BEHAVIORS[config.protocol](config.params)
    radio = config.radio
    heap: list[list] = []
    numbers = itertools.count()
    states = {rec.id: EmergencyState(rec.id, rec.role == Role.SOLVER, rec.id == SOURCE)
              for rec in world.nodes}
    frames: dict[int, list[tuple[float, float]]] = {rec.id: [] for rec in world.nodes}
    aware = {SOURCE}
    waiting = {SOURCE}  # aware and not solved
    logged: dict[int, int] = {}  # each node's last logged phase
    sent = Counter()  # transmissions per message kind
    ert = None

    def schedule(t, kind, node, data=None):
        entry = [t, next(numbers), kind, node, data]  # a cancelled entry's kind is None
        heapq.heappush(heap, entry)
        return entry

    def interpret(st, acts, t):
        for a in acts:
            if a[0] == SET_TIMER:
                st.live[a[1]] = schedule(t + a[2], TIMER, st.node, a[1])
            elif a[0] == TRANSMIT:
                msg = a[1]
                sent[msg.kind] += 1
                if trace is not None:
                    trace.append(("tx", t, st.node, msg.kind, msg.ttl))
                for receiver in receivers(world, st.node, t, radio, stream):
                    frames[receiver].append((t, t + radio.airtime_s))
                    schedule(t + radio.airtime_s, DELIVERY, receiver, (msg, t))
            elif a[0] == CANCEL_TIMER:
                a[2][2] = None
            else:  # START_POLL: the poll pops at the next tick, whatever is left to walk
                st.live[POLL] = schedule(t + TICK_S, TICK, st.node)

    for rec in world.nodes:
        if not rec.stationary:
            schedule(rec.leg.end, LEG_END, rec.id)
    src = states[SOURCE]  # its first phase entry waits for its first handled event
    interpret(src, behavior.start_emergency(src, 0.0, world.position_at(SOURCE, 0.0), stream),
              0.0)
    now = 0.0
    while waiting:
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        if not heap or heap[0][0] > config.horizon_s:
            now = config.horizon_s
            break
        now, _, kind, node, data = heapq.heappop(heap)
        if kind == LEG_END:
            schedule(world.start_leg(node, now, stream).end, LEG_END, node)
            continue
        st = states[node]
        pos = world.position_at(node, now)
        if kind == DELIVERY:
            msg, start = data
            if radio.interference == INTERFERENCE_COLLISION and collided(frames[node], start, now):
                continue
            if msg.kind == E_REQ and node not in aware:
                aware.add(node)
                waiting.add(node)
                if trace is not None:
                    trace.append(("aware", now, node))
            elif msg.kind == E_REP and node == SOURCE and ert is None:
                ert = now
            interpret(st, behavior.on_delivery(st, msg, now, pos, stream), now)
        elif kind == TIMER:
            interpret(st, behavior.on_timer(st, data, now, pos, stream), now)
        else:
            interpret(st, behavior.on_freeze_poll(st, now, pos, stream), now)
        if st.phase == SOLVED:
            waiting.discard(node)
        if trace is not None and st.phase != logged.get(node):
            logged[node] = st.phase
            trace.append(("phase", now, node, st.phase))
    return RunResult(run_index, seed, ert is not None, ert, sent[E_REQ], sent[E_REP], now)


def compare(config: ScenarioConfig, run_index: int = 0,
            make_world=None) -> tuple[RunResult, list]:
    """Run `run_once` and the reference, each on its own world from `make_world` (else
    the drawn one), and return run_once's result and `trace=` list. AssertionError
    unless they agree: equal results, end times only where a node moves (a static world
    stops once nothing can transmit), and equal traces up to the order of same-time
    entries, but for the phase entries the reference logs at or after the shipped run's
    last entry, as it has no quiescent exit."""
    world = make_world() if make_world else None
    trace: list = []
    result = run_once(config, run_index, world=world, trace=trace)
    ref_trace: list = []
    ref = run(config, run_index, world=make_world() if make_world else None, trace=ref_trace)
    if not (config.n > 0 if world is None else any(not rec.stationary for rec in world.nodes)):
        ref = replace(ref, end_time_s=result.end_time_s)
    assert result == ref, f"run_once {result} != reference {ref}"
    end = trace[-1][1]
    assert [e[1] for e in trace] == sorted(e[1] for e in trace), "trace out of time order"
    shipped, full = Counter(trace), Counter(e for e in ref_trace if e[1] <= end)
    assert not shipped - full, f"only run_once logs {list((shipped - full).elements())}"
    extra = list((full - shipped).elements()) + [e for e in ref_trace if e[1] > end]
    assert all(e[0] == "phase" and e[1] >= end for e in extra), f"only the reference logs {extra}"
    return result, trace
