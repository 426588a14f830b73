"""Emergency dissemination state machines and their distance-biased contention formulas.

Handlers are pure with respect to the event loop: they mutate only their own
per-node state and return a list of action tuples for the runner to interpret.
Every random draw goes through the stream passed in, in a fixed order, so a
seed fully determines behavior. The per-event draws, `LocateBehavior.carry_tick`
(coin, then period) and `FloodingBehavior._coin`, call `stream.random` with
`bernoulli`'s test and `uniform`'s map written out, unchecked: `ProtocolParams`
already gives 0 <= cw_min < cw_max and p_start, q_flood in (0, 1] (see
`kernel.RandomStream`). Every other draw goes through `uniform`, whose degenerate
window draws nothing. Two predicates read a state for the runner:
`may_transmit` (can the node still transmit before it hears another message)
and each behavior's `ignores_request` (would a request copy leave the node and
the stream as they are).
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
GUARD = "guard"  # a relay's acceptance round before forwarding starts
FORWARD = "forward"  # request or reply relay contention (baselines: the request relay)
DTN = "dtn"  # periodic rebroadcast (also the source's beacon slot)
POLL = "poll"  # a carrier's movement poll, armed by START_POLL

# action opcodes returned by handlers
TRANSMIT = 0  # (TRANSMIT, message)
SET_TIMER = 1  # (SET_TIMER, slot, delay_s)
CANCEL_TIMER = 2  # (CANCEL_TIMER, slot, queue handle)
START_POLL = 3  # (START_POLL, metres_left)  arm POLL at the first 1 s tick that could
#   thaw a carrier metres_left short; a poll that pops outside DTN_FROZEN does nothing


class Message(NamedTuple):
    kind: int
    tx: int  # last-hop transmitter id
    tx_pos: tuple[float, float]  # transmitter position at transmission start
    ttl: int


# builds a Message without the Python frame of the NamedTuple's own __new__
_new_tuple = tuple.__new__


@dataclass(frozen=True, slots=True)
class ProtocolParams:
    """The protocol's constants, checked when built, so the per-event draws need no check.

    cw_max must exceed the least positive float, 5e-324: at that value every
    period drawn from [0, cw_max) rounds to 0, so even a horizon of 5e-324 s,
    which `ScenarioConfig`'s cap of 1e6 windows accepts, would never be reached.
    """

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
        if self.cw_max_s / 2.0 == 0.0:  # every period drawn from [0, cw_max) rounds to 0
            raise ValueError(f"cw_max {self.cw_max_s} must exceed the least positive float")
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
    bias = gamma_per_m * d / (1.0 + d / radius_m)
    # inf / inf when gamma * d and d / radius both overflow: d is then far past saturation
    return bias if bias == bias else gamma_per_m * radius_m


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
    cached_rep: Message | None = None  # freshest reply seen; set in every solved non-source
    pending_reply_ttl: int = -1  # own-reply budget while ACCEPT is armed for one, else -1
    overheard: set = field(default_factory=set)  # distinct carriers heard in DTN (entered once)
    dtn_fire_at: float = -1.0  # absolute fire time of the live dtn timer
    dtn_remaining_s: float = -1.0  # residual dtn delay while frozen
    freeze_pos: tuple[float, float] | None = None  # anchor set iff phase == DTN_FROZEN
    erep_sent_at: float = -math.inf  # last reply transmission (cooldown stamp)
    req_done: bool = False  # baseline: request relayed (or coin spent)


def may_transmit(st: EmergencyState) -> bool:
    """Whether the node can still transmit before it hears another message.

    A non-source carrier (DTN_ACTIVE or DTN_FROZEN) can only while its stored
    request has hop budget: its DTN tick and its poll lead only to rebroadcasts
    of that request, and only deliveries add budget. Any other node can only
    while it has an armed timer; the source's beacon counts. Sound, not exact:
    a relay whose adopted request has ttl 0 arms GUARD, whose pop sends nothing
    but enters DTN and draws the carry period; and a solved node's reply relay
    (FORWARD) sends nothing if a spent reply (ttl 0) replaced its cached one
    before the pop. (A reply relay is armed only outside the reply cooldown and
    cancelled by every reply the node sends, so its pop needs no cooldown test.)

    So a timer that pops for a node this is false for is a spent carry tick:
    the DTN tick of a non-source carrier in DTN_ACTIVE whose stored request
    has `ttl < 1` (POLL pops as a FREEZE_POLL, and DTN is armed only in
    DTN_ACTIVE). The runner re-arms it through `LocateBehavior.carry_tick`
    without the handler. `FloodingBehavior` never has such a timer: its
    relays stay out of the DTN phases.
    """
    phase = st.phase
    if (phase == DTN_ACTIVE or phase == DTN_FROZEN) and not st.is_source:
        return st.stored_req.ttl >= 1
    return bool(st.live)


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
        msg = _new_tuple(Message, (E_REQ, st.node, pos, p.ttl_init))
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
    return _new_tuple(Message, (msg.kind, st.node, pos, msg.ttl - 1))


def _fire_reply(st: EmergencyState, t: float, pos: tuple[float, float]) -> list[tuple]:
    """The reply slot fires: a solver's own answer if one is armed, else the cached reply."""
    if st.pending_reply_ttl >= 0:  # armed only by solvers
        rep = _new_tuple(Message, (E_REP, st.node, pos, st.pending_reply_ttl))
        st.pending_reply_ttl = -1
        st.cached_rep = rep
        st.erep_sent_at = t
        acts: list[tuple] = [(TRANSMIT, rep)]
        _become_solved(st, acts)
        _cancel(st, acts, FORWARD)  # a reply relay armed before would pop inside the cooldown
        return acts
    return _relay_cached_reply(st, t, pos)


def _relay_cached_reply(st: EmergencyState, t: float, pos: tuple[float, float]) -> list[tuple]:
    """Relay the freshest reply on behalf of an earlier solver, if it has hop budget left.

    Sending restarts the reply cooldown, and an armed reply relay (FORWARD) would pop
    inside it: it is cancelled, so a reply relay never pops inside the cooldown."""
    rep = st.cached_rep
    if rep.ttl < 1:
        return []
    st.erep_sent_at = t
    acts: list[tuple] = [(TRANSMIT, _relayed(st, rep, pos))]
    _cancel(st, acts, FORWARD)
    return acts


def _become_solved(st: EmergencyState, acts: list[tuple]) -> None:
    """The absorbing transition: stop spreading and carrying the request, cancelling
    the guard, forward, carry-tick and movement-poll timers (ACCEPT is the caller's)."""
    if st.phase == SOLVED:
        return
    st.phase = SOLVED
    live = st.live
    if live:
        for slot in (GUARD, FORWARD, DTN, POLL):
            if slot in live:  # `_cancel`, only for the slots that are armed
                acts.append((CANCEL_TIMER, slot, live.pop(slot)))
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
        # carry_tick's period window, once: (cw_min, cw_max - cw_min, cw_max)
        self._carry_window = (params.cw_min_s, params.cw_max_s - params.cw_min_s, params.cw_max_s)

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

    def ignores_request(self, st: EmergencyState, msg: Message) -> bool:
        """Whether `on_delivery` of the request copy msg would return no action, change
        no field and draw nothing. True for the source, and for a carrier, active or
        frozen, whose copy brings no news: no fresher than its stored one and, optimised
        only, from a carrier it has overheard (`_on_request`'s two carrier tests negated).

        Sound but not complete: the handler still takes the rare copies that change
        nothing elsewhere, such as one to a relay in ACCEPTING.
        """
        if st.is_source:
            return True
        phase = st.phase
        return (phase == DTN_ACTIVE or phase == DTN_FROZEN) and msg.ttl <= st.stored_req.ttl \
            and (not self.dtn_optimized or msg.tx in st.overheard)

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
            return acts
        if st.phase == UNAWARE:
            # hold back for one full window so nearby solvers get to answer first
            st.phase = ACCEPTING
            _set(st, acts, GUARD, self.params.cw_max_s)
        elif st.phase == FORWARDING:
            # someone else is already spreading this request: stand down and carry
            _cancel(st, acts, FORWARD)
            self._enter_dtn(st, t, stream, acts)
        elif st.phase == DTN_ACTIVE or st.phase == DTN_FROZEN:
            if self.dtn_optimized and msg.tx not in st.overheard:
                st.overheard.add(msg.tx)
                if st.phase == DTN_ACTIVE:  # a frozen carrier only counts it
                    if len(st.overheard) >= 2:
                        self._freeze(st, t, pos, acts)
                    else:
                        # first competing carrier: back off to a fresh period
                        _cancel(st, acts, DTN)
                        self._arm_dtn(st, acts, t, stream.uniform(self.params.cw_min_s,
                                                                  self.params.cw_max_s))
            if msg.ttl > st.stored_req.ttl:
                st.stored_req = msg  # fresher copy: its budget is spent now or after thawing
        elif st.phase == SOLVED:
            # answer with the cached reply after the same close-biased wait;
            # demand-bounded by request traffic, so no cooldown applies here
            if st.cached_rep.ttl >= 1 and ACCEPT not in st.live:
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
        # no cooldown test: armed only outside it, and every reply sent cancels the relay
        return _relay_cached_reply(st, t, pos)

    def carry_tick(self, st: EmergencyState, t: float,
                   stream: RandomStream) -> tuple[bool, float]:
        """The draws of a carrier's DTN tick at t: its rebroadcast coin, then its next
        period. Sets `dtn_fire_at` to t + period; arming the timer is the caller's.

        The coin is drawn even when the stored request has no hop budget left, so a
        spent carrier's tick uses the stream as one with budget does. The runner
        re-arms a spent carrier's tick through this method alone.
        """
        p = 1.0
        if self.dtn_optimized:
            heard = len(st.overheard)
            p = self._carry_p.get(heard)
            if p is None:
                p = self._carry_p[heard] = dtn_forward_probability(self.params.p_start, heard)
        # bernoulli(p), then uniform(cw_min, cw_max) written out: p lies in (0, 1] and
        # ProtocolParams gives 0 <= cw_min < cw_max, so neither check could fail
        random = stream.random
        coin = random() < p
        lo, span, hi = self._carry_window
        period = lo + span * random()
        if period >= hi:  # the half-open bound, against rounding
            period = math.nextafter(hi, lo)
        st.dtn_fire_at = t + period
        return coin, period

    def _fire_dtn(self, st: EmergencyState, t: float, pos: tuple[float, float],
                  stream: RandomStream) -> list[tuple]:
        acts: list[tuple] = []
        coin, period = self.carry_tick(st, t, stream)
        if coin and st.stored_req.ttl >= 1:
            # each rebroadcast is a relay: it spends hop budget like any other
            st.stored_req = _relayed(st, st.stored_req, pos)
            acts.append((TRANSMIT, st.stored_req))
        # the period always restarts; a spent carrier stays silent until it
        # adopts a fresher copy of the request
        _set(st, acts, DTN, period)
        return acts

    # -- movement polling ----------------------------------------------------

    def on_freeze_poll(self, st: EmergencyState, t: float,
                       pos: tuple[float, float], stream: RandomStream) -> list[tuple]:
        st.live.pop(POLL, None)
        acts: list[tuple] = []
        if st.phase != DTN_FROZEN:
            return acts  # dormant: freezing emits a fresh START_POLL
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
        self._arm_dtn(st, acts, t,
                      stream.uniform(self.params.cw_min_s, self.params.cw_max_s))
        if self.dtn_optimized:
            acts.append((START_POLL, 0.0))  # dormant until the carrier freezes

    def _arm_dtn(self, st: EmergencyState, acts: list[tuple], t: float, delay: float) -> None:
        st.dtn_fire_at = t + delay
        _set(st, acts, DTN, delay)

    def _freeze(self, st: EmergencyState, t: float, pos: tuple[float, float],
                acts: list[tuple]) -> None:
        """Freeze an active carrier at pos, keeping its DTN timer's remaining delay.

        The movement poll's 1 s lattice starts at the freeze, unless the carrier
        freezes within a second of entering the carry phase: the dormant poll
        `_enter_dtn` armed is then still live and is reused, so the lattice
        starts 1 s after the entry. The poll holds the POLL slot of `live`, so
        solving the carrier cancels it with its other timers.
        """
        _cancel(st, acts, DTN)
        st.dtn_remaining_s = st.dtn_fire_at - t  # the live timer has not popped yet
        st.freeze_pos = pos
        st.phase = DTN_FROZEN
        if POLL not in st.live:  # else the dormant poll from _enter_dtn checks first
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
        return q is None or stream.random() < q  # bernoulli(q); q_flood lies in (0, 1]

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
            _set(st, acts, ACCEPT, stream.uniform(0.0, self.params.cw_max_s))
        return acts

    def ignores_request(self, st: EmergencyState, msg: Message) -> bool:
        """Whether `on_delivery` of the request copy msg would return no action, change
        no field and draw nothing.

        True for the source, and for a relay that has made its one relay decision
        (relayed, or lost the coin) and is not solved: `_on_request` then neither
        draws nor changes a field, whatever the copy.
        """
        return st.is_source or (st.req_done and st.phase != SOLVED)

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
            if st.cached_rep.ttl >= 1 and ACCEPT not in st.live and self._coin(stream):
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
