"""Every RunResult and full `trace=` list over a fixed matrix, pinned by one hash.

The perfbench references pin the RunResult counts; this also pins every
transmission, phase change and awareness time, so a refactor that claims
byte-identical runs has to keep the whole event history. Re-record DIGEST
(print `matrix_digest()`) only for a model change that is announced, as with
the references.
"""

import dataclasses
import hashlib

from locatesim.experiments import PROTOCOLS, ScenarioConfig, run_once
from locatesim.protocol import ProtocolParams
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


def matrix_digest() -> str:
    h = hashlib.sha256()
    for config in matrix():
        for i in range(config.runs):
            trace: list = []
            result = run_once(config, i, trace=trace)
            h.update(repr((dataclasses.astuple(result), trace)).encode())
    return h.hexdigest()


def test_runs_and_traces_match_the_recorded_digest():
    assert matrix_digest() == DIGEST
