"""Every RunResult and full `trace=` list over a fixed matrix, pinned by one hash.

The perfbench references pin the RunResult counts; this also pins every
transmission, phase change and awareness time, so a refactor that claims
byte-identical runs has to keep the whole event history. Re-record DIGEST
(print `matrix_digest()`) only for a model change that is announced, as with
the references.
"""

import contextlib
import dataclasses
import functools
import hashlib
from unittest import mock

from locatesim.experiments import PROTOCOLS, ScenarioConfig, run_once
from locatesim.protocol import FloodingBehavior, LocateBehavior, ProtocolParams
from locatesim.radio import (INTERFERENCE_COLLISION, INTERFERENCE_NONE, SMOOTH, UNIT_DISK,
                             lora_profile)

DIGEST = "e797891c0eb1ce9084022d11d543fa7cf604667508653dbeb79845fa6b86d2a8"

RUNS = 3


def matrix():
    """Every protocol x pdr model x interference at n = 5 and 40 over 24 h and at
    n = 120 over 30 min, plus carriers with a short thaw distance."""
    for protocol in PROTOCOLS:
        for pdr_model in (UNIT_DISK, SMOOTH):
            for interference in (INTERFERENCE_NONE, INTERFERENCE_COLLISION):
                radio = lora_profile(pdr_model=pdr_model, interference=interference)
                for n, horizon_s in ((5, 86400.0), (40, 86400.0), (120, 1800.0)):
                    yield ScenarioConfig(n=n, tau=0.15, protocol=protocol, runs=RUNS,
                                         base_seed=7, horizon_s=horizon_s, radio=radio,
                                         params=ProtocolParams())
    # a short thaw distance makes carriers freeze and thaw many times per run
    for n in (40, 120):
        yield ScenarioConfig(n=n, tau=0.05, runs=RUNS, base_seed=11,
                             params=ProtocolParams(dtn_dist_m=20.0))


@functools.cache
def recorded_matrix(traced: bool) -> tuple:
    """Per run of the matrix, in order: its result, its `trace=` list (None untraced)
    and every handler call, as (handler, node, its arguments up to the time), in call
    order. The calls are recorded by wrappers on each behavior's own handlers, which
    the run binds once."""
    calls: list = []

    def recording(name, handler):
        def record(self, st, *args):
            calls.append((name, st.node) + args[:-2])  # not the position and the stream
            return handler(self, st, *args)
        return record

    runs = []
    with contextlib.ExitStack() as wrapped:
        for cls in (LocateBehavior, FloodingBehavior):
            for name, handler in list(vars(cls).items()):
                if name in ("on_delivery", "on_timer", "on_freeze_poll"):
                    wrapped.enter_context(
                        mock.patch.object(cls, name, recording(name, handler)))
        for config in matrix():
            for i in range(config.runs):
                trace = [] if traced else None
                result = run_once(config, i, trace=trace)
                runs.append((result, trace, tuple(calls)))
                calls.clear()
    return tuple(runs)


def matrix_digest() -> str:
    h = hashlib.sha256()
    for result, trace, _ in recorded_matrix(True):
        h.update(repr((dataclasses.astuple(result), trace)).encode())
    return h.hexdigest()


def test_runs_and_traces_match_the_recorded_digest():
    assert matrix_digest() == DIGEST


def test_tracing_changes_no_result_and_no_handler_call():
    """A traced run takes the same path per event as an untraced one: the same results
    and the same handler calls, with the same arguments, in the same order."""
    traced, untraced = recorded_matrix(True), recorded_matrix(False)
    assert [run[0] for run in traced] == [run[0] for run in untraced]
    differ = [i for i, (a, b) in enumerate(zip(traced, untraced)) if a[2] != b[2]]
    assert not differ, f"{len(differ)} of {len(traced)} runs call other handlers: {differ}"
