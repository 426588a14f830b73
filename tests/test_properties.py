"""Run-level invariants over generated small scenarios, read back from `trace=` lists."""

from hypothesis import given, settings
from hypothesis import strategies as st

from locatesim.experiments import PROTOCOLS, SOURCE_ID, ScenarioConfig, run_once
from locatesim.protocol import E_REQ, SOLVED, ProtocolParams
from locatesim.radio import (INTERFERENCE_COLLISION, INTERFERENCE_NONE, SMOOTH, UNIT_DISK,
                             lora_profile)

configs = st.builds(
    lambda n, tau, protocol, pdr_model, interference, ttl_init, horizon_s, side_m, seed:
        ScenarioConfig(n=n, tau=tau, protocol=protocol, side_m=side_m, runs=1,
                       base_seed=seed, horizon_s=horizon_s,
                       radio=lora_profile(pdr_model=pdr_model, interference=interference),
                       params=ProtocolParams(ttl_init=ttl_init)),
    n=st.integers(1, 12),
    tau=st.floats(0.0, 1.0),
    protocol=st.sampled_from(PROTOCOLS),
    pdr_model=st.sampled_from((UNIT_DISK, SMOOTH)),
    interference=st.sampled_from((INTERFERENCE_NONE, INTERFERENCE_COLLISION)),
    ttl_init=st.integers(0, 3),
    horizon_s=st.floats(1.0, 3600.0),
    side_m=st.floats(200.0, 3000.0),
    seed=st.integers(0, 2**31 - 1),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(configs)
def test_trace_invariants(config):
    trace: list = []
    result = run_once(config, 0, trace=trace)
    aware = {SOURCE_ID}
    phase: dict[int, int] = {}
    settled_at = None  # first prefix at which every aware node is SOLVED
    source_solved_at = None
    requests = replies = 0
    for rec in trace:
        tag, t, node = rec[:3]
        if tag == "aware":
            aware.add(node)
        elif tag == "phase":
            assert phase.get(node) != SOLVED, f"node {node} left SOLVED at {t}"
            phase[node] = rec[3]
            if node == SOURCE_ID and rec[3] == SOLVED:
                source_solved_at = t
        else:
            kind, ttl = rec[3:]
            assert 0 <= ttl <= config.params.ttl_init
            if kind == E_REQ:
                requests += 1
            else:
                replies += 1
        if settled_at is None and all(phase.get(a) == SOLVED for a in aware):
            settled_at = t
            assert rec is trace[-1], "the run went on after every aware node was solved"
    assert result.end_time_s == (config.horizon_s if settled_at is None else settled_at)
    assert result.ert_s == source_solved_at
    assert (result.ereq_count, result.erep_count) == (requests, replies)
