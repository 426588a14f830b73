"""Emergency dissemination state machines and their distance-biased contention formulas.

Handlers are pure with respect to the event loop: they mutate only their own
per-node state and return a list of action tuples for the runner to interpret.
Every random draw goes through the stream passed in, in a fixed order, so a
seed fully determines behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .kernel import RandomStream
from .world import distance

# message kinds
E_REQ = 0  # help request
E_REP = 1  # solution reply

# dissemination phases, in statechart order
UNAWARE = 0
ACCEPTING = 1  # heard the request, waiting out the reply round
FORWARDING = 2  # contending to rebroadcast the request
DTN_ACTIVE = 3  # periodic carry-and-forward rebroadcasts
DTN_FROZEN = 4  # rebroadcasts paused until the node moves away
SOLVED = 5  # absorbing

# timer slots (one live timer per slot per node and emergency)
ACCEPT = "accept"  # reply contention, own or cached reply
GUARD = "guard"  # acceptance round length before forwarding starts
FORWARD = "forward"  # request or reply relay contention (baselines: the request relay)
DTN = "dtn"  # periodic rebroadcast (also the source's beacon slot)

# action opcodes returned by handlers
TRANSMIT = 0  # (TRANSMIT, message)
SET_TIMER = 1  # (SET_TIMER, slot, delay_s)
CANCEL_TIMER = 2  # (CANCEL_TIMER, slot, queue handle)
START_POLL = 3  # (START_POLL, metres_left)  poll at the first 1 s tick that could thaw a
#   carrier metres_left short; an armed poll is reused, one outside DTN_FROZEN is ignored


class Message(NamedTuple):
    kind: int
    tx: int  # last-hop transmitter id
    tx_pos: tuple[float, float]  # transmitter position at transmission start
    ttl: int


@dataclass(frozen=True, slots=True)
class ProtocolParams:
    cw_min_s: float = 5.0
    cw_max_s: float = 20.0
    gamma_per_m: float = 0.005  # distance weight slope near zero
    radius_m: float = 500.0  # distance weight saturation scale
    dtn_dist_m: float = 50.0  # displacement that thaws a frozen carrier
    p_start: float = 0.4  # rebroadcast probability floor
    q_flood: float = 0.4  # baseline relay coin
    ttl_init: int = 16
    e_thr_s: float = 1800.0  # resolution deadline for the success ratio

    def __post_init__(self) -> None:
        for name in ("cw_min_s", "cw_max_s", "gamma_per_m", "radius_m", "dtn_dist_m",
                     "p_start", "q_flood", "e_thr_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} {value} must be finite")
        if not (0.0 <= self.cw_min_s < self.cw_max_s):
            raise ValueError(f"need 0 <= cw_min < cw_max, got [{self.cw_min_s}, {self.cw_max_s}]")
        if self.gamma_per_m <= 0.0 or self.radius_m <= 0.0:
            raise ValueError("distance weight parameters must be positive")
        if self.dtn_dist_m <= 0.0:
            raise ValueError(f"thaw displacement {self.dtn_dist_m} must be positive")
        if not (0.0 < self.p_start <= 1.0):
            raise ValueError(f"p_start {self.p_start} outside (0, 1]")
        if not (0.0 < self.q_flood <= 1.0):
            raise ValueError(f"q_flood {self.q_flood} outside (0, 1]")
        if self.ttl_init < 0:
            raise ValueError(f"negative initial ttl {self.ttl_init}")
        if self.e_thr_s <= 0.0:
            raise ValueError(f"resolution deadline {self.e_thr_s} must be positive")


def distance_bias(d: float, gamma_per_m: float, radius_m: float) -> float:
    """Saturating distance weight: ~gamma*d near zero, leveling off at gamma*radius."""
    if d < 0.0:
        raise ValueError(f"negative distance {d}")
    return gamma_per_m * d / (1.0 + d / radius_m)


def acceptance_window(d: float, params: ProtocolParams) -> float:
    """Reply contention window: short for close responders, grows toward cw_max with distance."""
    bias = distance_bias(d, params.gamma_per_m, params.radius_m)
    return params.cw_max_s * (1.0 - math.exp(-bias))


def forwarding_window(d: float, params: ProtocolParams) -> float:
    """Relay contention window: short for distant relays; complements the reply window."""
    bias = distance_bias(d, params.gamma_per_m, params.radius_m)
    return params.cw_max_s * math.exp(-bias)


def dtn_forward_probability(p_start: float, heard: int) -> float:
    """Rebroadcast probability after overhearing `heard` distinct other carriers."""
    if not (0.0 < p_start <= 1.0):
        raise ValueError(f"p_start {p_start} outside (0, 1]")
    if heard < 0:
        raise ValueError(f"negative overheard count {heard}")
    return p_start ** (1.0 / (1.0 + heard))


@dataclass(slots=True)
class EmergencyState:
    """Per-node, per-emergency protocol state shared by all scheme variants."""

    node: int
    is_solver: bool
    is_source: bool
    phase: int = UNAWARE
    live: dict = field(default_factory=dict)  # armed timer slot -> queue handle
    stored_req: Message | None = None  # adopted request copy; baselines: the relay payload
    cached_rep: Message | None = None  # freshest reply seen
    pending_reply_ttl: int = -1  # armed original-reply budget; -1 means cached reply
    overheard: set = field(default_factory=set)  # distinct carriers heard since entering DTN
    dtn_fire_at: float = -1.0  # absolute fire time of the live dtn timer
    dtn_remaining_s: float = -1.0  # residual dtn delay while frozen
    freeze_pos: tuple[float, float] | None = None  # anchor set iff phase == DTN_FROZEN
    erep_sent_at: float = -math.inf  # last reply transmission (cooldown stamp)
    req_done: bool = False  # baseline: request relayed (or coin spent)


def may_transmit(st: EmergencyState) -> bool:
    """Whether the node can still transmit before it hears another message.

    Only deliveries add hop budget, so a carrier whose stored request has none
    left never transmits from its DTN tick again. Every other armed timer,
    the source's beacon included, counts. A frozen carrier has no armed timer
    but re-arms its tick when it thaws, so it counts while it has budget.
    """
    live = st.live
    if not live:
        return st.phase == DTN_FROZEN and st.stored_req.ttl >= 1
    return not (len(live) == 1 and DTN in live and not st.is_source
                and st.stored_req.ttl < 1)


class _SourceMixin:
    """Source behavior is identical across schemes: beacon until a reply arrives."""

    params: ProtocolParams

    def start_emergency(self, st: EmergencyState, t: float,
                        pos: tuple[float, float], stream: RandomStream) -> list[tuple]:
        """First broadcast of a new emergency, plus the periodic beacon timer."""
        st.phase = DTN_ACTIVE
        return self._source_beacon(st, t, pos, stream)

    def _source_on_delivery(self, st: EmergencyState, msg: Message) -> list[tuple]:
        # the source ignores requests; the first reply ends its beaconing
        if msg.kind != E_REP:
            return []
        acts: list[tuple] = []
        _become_solved(st, acts)
        return acts

    def _source_beacon(self, st: EmergencyState, t: float,
                       pos: tuple[float, float], stream: RandomStream) -> list[tuple]:
        p = self.params
        msg = Message(E_REQ, st.node, pos, p.ttl_init)
        acts: list[tuple] = [(TRANSMIT, msg)]
        _set(st, acts, DTN, stream.uniform(p.cw_min_s, p.cw_max_s))
        return acts


def _set(st: EmergencyState, acts: list[tuple], slot: str, delay: float) -> None:
    if slot in st.live:
        raise RuntimeError(f"timer slot {slot!r} already armed for node {st.node}")
    st.live[slot] = None  # the runner stores the queue handle when it arms the timer
    acts.append((SET_TIMER, slot, delay))


def _cancel(st: EmergencyState, acts: list[tuple], slot: str) -> None:
    if slot in st.live:
        acts.append((CANCEL_TIMER, slot, st.live.pop(slot)))


def _relayed(st: EmergencyState, msg: Message, pos: tuple[float, float]) -> Message:
    """The copy this node rebroadcasts: every relay spends one hop of the budget."""
    return Message(msg.kind, st.node, pos, msg.ttl - 1)


def _fire_reply(st: EmergencyState, t: float, pos: tuple[float, float]) -> list[tuple]:
    """The reply slot fires: a solver's own answer if one is armed, else the cached reply."""
    if st.pending_reply_ttl >= 0:  # armed only by solvers
        rep = Message(E_REP, st.node, pos, st.pending_reply_ttl)
        st.pending_reply_ttl = -1
        st.cached_rep = rep
        st.erep_sent_at = t
        acts: list[tuple] = [(TRANSMIT, rep)]
        _become_solved(st, acts)
        return acts
    return _relay_cached_reply(st, t, pos)


def _relay_cached_reply(st: EmergencyState, t: float, pos: tuple[float, float]) -> list[tuple]:
    """Relay the freshest reply on behalf of an earlier solver, if it has hop budget left."""
    rep = st.cached_rep
    if rep is None or rep.ttl < 1:
        return []
    st.erep_sent_at = t
    return [(TRANSMIT, _relayed(st, rep, pos))]


def _become_solved(st: EmergencyState, acts: list[tuple]) -> None:
    """The absorbing transition: stop spreading and carrying the request (an armed poll pops idle)."""
    if st.phase == SOLVED:
        return
    st.phase = SOLVED
    for slot in (GUARD, FORWARD, DTN):
        _cancel(st, acts, slot)
    st.freeze_pos = None
    st.dtn_remaining_s = -1.0


class LocateBehavior(_SourceMixin):
    """Distance-biased contention plus DTN carry-and-forward.

    With dtn_optimized False the carrier always rebroadcasts (probability 1)
    and never reschedules or freezes on overheard traffic.
    """

    def __init__(self, params: ProtocolParams, dtn_optimized: bool = True) -> None:
        self.params = params
        self.dtn_optimized = dtn_optimized
        self._carry_p: dict[int, float] = {}  # dtn_forward_probability per overheard count

    # -- deliveries ---------------------------------------------------------

    def on_delivery(self, st: EmergencyState, msg: Message, t: float,
                    pos: tuple[float, float], stream: RandomStream) -> list[tuple]:
        if st.is_source:
            return self._source_on_delivery(st, msg)
        if msg.kind == E_REP:
            return self._on_reply(st, msg, t, pos, stream)
        return self._on_request(st, msg, t, pos, stream)

    def _on_reply(self, st: EmergencyState, msg: Message, t: float,
                  pos: tuple[float, float], stream: RandomStream) -> list[tuple]:
        acts: list[tuple] = []
        _become_solved(st, acts)
        # someone already answered: drop any pending reply of our own
        _cancel(st, acts, ACCEPT)
        st.pending_reply_ttl = -1
        st.cached_rep = msg
        # relay the reply once per cooldown, contending like a distant forwarder
        if msg.ttl >= 1 and FORWARD not in st.live \
                and t - st.erep_sent_at >= self.params.cw_max_s:
            d = distance(msg.tx_pos, pos)
            _set(st, acts, FORWARD, stream.uniform(0.0, forwarding_window(d, self.params)))
        return acts

    def _on_request(self, st: EmergencyState, msg: Message, t: float,
                    pos: tuple[float, float], stream: RandomStream) -> list[tuple]:
        acts: list[tuple] = []
        if st.stored_req is None:
            st.stored_req = msg
        if st.is_solver:
            # a solver answers every request it can, whatever its phase
            if msg.ttl >= 1 and ACCEPT not in st.live:
                st.pending_reply_ttl = msg.ttl - 1
                d = distance(msg.tx_pos, pos)
                _set(st, acts, ACCEPT, stream.uniform(0.0, acceptance_window(d, self.params)))
            if st.phase == UNAWARE:
                st.phase = ACCEPTING
                _set(st, acts, GUARD, self.params.cw_max_s)
            return acts
        if st.phase == UNAWARE:
            # hold back for one full window so nearby solvers get to answer first
            st.phase = ACCEPTING
            _set(st, acts, GUARD, self.params.cw_max_s)
        elif st.phase == FORWARDING:
            # someone else is already spreading this request: stand down and carry
            _cancel(st, acts, FORWARD)
            self._enter_dtn(st, t, stream, acts)
        elif st.phase == DTN_ACTIVE:
            if self.dtn_optimized and msg.tx not in st.overheard:
                st.overheard.add(msg.tx)
                if len(st.overheard) >= 2:
                    self._freeze(st, t, pos, acts)
                else:
                    # first competing carrier: back off to a fresh period
                    _cancel(st, acts, DTN)
                    self._arm_dtn(st, acts, t,
                                  stream.uniform(self.params.cw_min_s, self.params.cw_max_s))
            if msg.ttl > st.stored_req.ttl:
                st.stored_req = msg  # fresher copy: adopt its larger hop budget
        elif st.phase == DTN_FROZEN:
            if self.dtn_optimized and msg.tx not in st.overheard:
                st.overheard.add(msg.tx)
            if msg.ttl > st.stored_req.ttl:
                st.stored_req = msg  # budget adopted now, spent after thawing
        elif st.phase == SOLVED:
            # answer with the cached reply after the same close-biased wait;
            # demand-bounded by request traffic, so no cooldown applies here
            if st.cached_rep is not None and st.cached_rep.ttl >= 1 \
                    and ACCEPT not in st.live:
                st.pending_reply_ttl = -1
                d = distance(msg.tx_pos, pos)
                _set(st, acts, ACCEPT, stream.uniform(0.0, acceptance_window(d, self.params)))
        return acts

    # -- timers -------------------------------------------------------------

    def on_timer(self, st: EmergencyState, slot: str, t: float,
                 pos: tuple[float, float], stream: RandomStream) -> list[tuple]:
        st.live.pop(slot, None)
        if st.is_source:
            return self._source_beacon(st, t, pos, stream)
        if slot == ACCEPT:
            return _fire_reply(st, t, pos)
        if slot == GUARD:
            return self._fire_guard(st, t, pos, stream)
        if slot == FORWARD:
            return self._fire_forward(st, t, pos, stream)
        if slot == DTN:
            return self._fire_dtn(st, t, pos, stream)
        raise ValueError(f"unknown timer slot {slot!r}")

    def _fire_guard(self, st: EmergencyState, t: float, pos: tuple[float, float],
                    stream: RandomStream) -> list[tuple]:
        acts: list[tuple] = []
        if st.is_solver:
            # reply pending or already sent; the guard has nothing left to do
            return acts
        if st.stored_req.ttl >= 1:
            st.phase = FORWARDING
            d = distance(st.stored_req.tx_pos, pos)
            _set(st, acts, FORWARD, stream.uniform(0.0, forwarding_window(d, self.params)))
        else:
            # nothing left to forward; carry silently
            self._enter_dtn(st, t, stream, acts)
        return acts

    def _fire_forward(self, st: EmergencyState, t: float, pos: tuple[float, float],
                      stream: RandomStream) -> list[tuple]:
        # every way out of FORWARDING cancels or fires this slot, and a solved
        # node (the only one to arm a reply relay) never forwards again
        if st.phase == FORWARDING:
            st.stored_req = _relayed(st, st.stored_req, pos)
            acts: list[tuple] = [(TRANSMIT, st.stored_req)]
            self._enter_dtn(st, t, stream, acts)
            return acts
        if t - st.erep_sent_at >= self.params.cw_max_s:
            return _relay_cached_reply(st, t, pos)
        return []

    def _fire_dtn(self, st: EmergencyState, t: float, pos: tuple[float, float],
                  stream: RandomStream) -> list[tuple]:
        acts: list[tuple] = []
        p = 1.0
        if self.dtn_optimized:
            heard = len(st.overheard)
            p = self._carry_p.get(heard)
            if p is None:
                p = self._carry_p[heard] = dtn_forward_probability(self.params.p_start, heard)
        if stream.bernoulli(p) and st.stored_req.ttl >= 1:
            # each rebroadcast is a relay: it spends hop budget like any other
            st.stored_req = _relayed(st, st.stored_req, pos)
            acts.append((TRANSMIT, st.stored_req))
        # the period always restarts; a spent carrier stays silent until it
        # adopts a fresher copy of the request
        self._arm_dtn(st, acts, t,
                      stream.uniform(self.params.cw_min_s, self.params.cw_max_s))
        return acts

    # -- movement polling ----------------------------------------------------

    def on_freeze_poll(self, st: EmergencyState, t: float,
                       pos: tuple[float, float], stream: RandomStream) -> list[tuple]:
        acts: list[tuple] = []
        if st.phase != DTN_FROZEN:
            return acts  # dormant or solved; freezing emits a fresh START_POLL
        left = self.params.dtn_dist_m - distance(pos, st.freeze_pos)
        if left <= 0.0:  # exactly distance >= dtn_dist_m: a difference is 0 only for equals
            st.phase = DTN_ACTIVE
            st.freeze_pos = None
            self._arm_dtn(st, acts, t, st.dtn_remaining_s)
            st.dtn_remaining_s = -1.0
        else:
            acts.append((START_POLL, left))
        return acts

    # -- helpers ------------------------------------------------------------

    def _enter_dtn(self, st: EmergencyState, t: float, stream: RandomStream,
                   acts: list[tuple]) -> None:
        st.phase = DTN_ACTIVE
        st.overheard.clear()
        self._arm_dtn(st, acts, t,
                      stream.uniform(self.params.cw_min_s, self.params.cw_max_s))
        if self.dtn_optimized:
            acts.append((START_POLL, 0.0))  # dormant until the carrier freezes

    def _arm_dtn(self, st: EmergencyState, acts: list[tuple], t: float, delay: float) -> None:
        st.dtn_fire_at = t + delay
        _set(st, acts, DTN, delay)

    def _freeze(self, st: EmergencyState, t: float, pos: tuple[float, float],
                acts: list[tuple]) -> None:
        _cancel(st, acts, DTN)
        st.dtn_remaining_s = max(st.dtn_fire_at - t, 0.0)
        st.freeze_pos = pos
        st.phase = DTN_FROZEN
        acts.append((START_POLL, self.params.dtn_dist_m))


class FloodingBehavior(_SourceMixin):
    """One-shot epidemic relaying with a uniform backoff before each transmission.

    A gated behaviour (the probabilistic baseline) gates every relay decision by one
    coin flip of probability q_flood; an ungated one relays unconditionally.
    """

    def __init__(self, params: ProtocolParams, gated: bool) -> None:
        self.params = params
        self.q_flood = params.q_flood if gated else None

    def _coin(self, stream: RandomStream) -> bool:
        q = self.q_flood
        return q is None or stream.bernoulli(q)

    def on_delivery(self, st: EmergencyState, msg: Message, t: float,
                    pos: tuple[float, float], stream: RandomStream) -> list[tuple]:
        if st.is_source:
            return self._source_on_delivery(st, msg)
        if msg.kind == E_REP:
            return self._on_reply(st, msg, stream)
        return self._on_request(st, msg, stream)

    def _on_reply(self, st: EmergencyState, msg: Message,
                  stream: RandomStream) -> list[tuple]:
        acts: list[tuple] = []
        first = st.phase != SOLVED
        _become_solved(st, acts)
        st.cached_rep = msg
        # SOLVED is absorbing, so only the first reply gets a relay decision
        if first and msg.ttl >= 1 and ACCEPT not in st.live and self._coin(stream):
            st.pending_reply_ttl = -1
            _set(st, acts, ACCEPT, stream.uniform(0.0, self.params.cw_max_s))
        return acts

    def _on_request(self, st: EmergencyState, msg: Message,
                    stream: RandomStream) -> list[tuple]:
        acts: list[tuple] = []
        if st.phase != SOLVED:
            st.phase = ACCEPTING  # aware, nothing more granular in the baselines
        if st.is_solver:
            # original replies are never coin-gated
            if msg.ttl >= 1 and ACCEPT not in st.live:
                st.pending_reply_ttl = msg.ttl - 1
                _set(st, acts, ACCEPT, stream.uniform(0.0, self.params.cw_max_s))
            return acts
        if st.phase == SOLVED:
            if st.cached_rep is not None and st.cached_rep.ttl >= 1 \
                    and ACCEPT not in st.live and self._coin(stream):
                st.pending_reply_ttl = -1
                _set(st, acts, ACCEPT, stream.uniform(0.0, self.params.cw_max_s))
            return acts
        if not st.req_done and msg.ttl >= 1:
            st.req_done = True  # one relay decision per emergency, spent even on a lost coin
            if self._coin(stream):
                st.stored_req = msg
                _set(st, acts, FORWARD, stream.uniform(0.0, self.params.cw_max_s))
        return acts

    def on_timer(self, st: EmergencyState, slot: str, t: float,
                 pos: tuple[float, float], stream: RandomStream) -> list[tuple]:
        st.live.pop(slot, None)
        if st.is_source:
            return self._source_beacon(st, t, pos, stream)
        if slot == FORWARD:
            return [(TRANSMIT, _relayed(st, st.stored_req, pos))]
        if slot == ACCEPT:
            return _fire_reply(st, t, pos)
        raise ValueError(f"unknown timer slot {slot!r}")

    def on_freeze_poll(self, st: EmergencyState, t: float,
                       pos: tuple[float, float], stream: RandomStream) -> list[tuple]:
        return []  # baselines never freeze
