"""Compare `run_once` with the reference runner `tests/reference.py` on a fixed grid.

The grid is every protocol × four shapes (n=40 at tau 0.15, n=5, n=40 at tau
0.05, n=20 in a 2 km arena) × four radios (LoRa, wifi, LoRa with smooth loss and
collisions, LoRa with collisions) × horizons of 30 min and 24 h × two parameter
sets (the defaults; `ttl_init` 2 with `dtn_dist` 20 m) × runs 0-2 at base seed
1: 768 runs, every world mobile. It reaches sizes, radios and horizons that the
tier-1 property's small configs do not. It exits 1 at the first `RunResult` that
differs, after printing both, and else prints the count and each runner's time
(about 6 s for `run_once` and 25 s for the reference on a 2-vCPU VM).

    python3 scripts/reference_grid.py
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import reference  # noqa: E402
from locatesim.experiments import PROTOCOLS, ScenarioConfig, run_once  # noqa: E402
from locatesim.protocol import ProtocolParams  # noqa: E402
from locatesim.radio import lora_profile, wifi_profile  # noqa: E402

SHAPES = (dict(n=40, tau=0.15), dict(n=5, tau=0.15), dict(n=40, tau=0.05),
          dict(n=20, tau=0.15, side_m=2000.0))
RADIOS = (lora_profile(), wifi_profile(),
          lora_profile(pdr_model="smooth", interference="collision"),
          lora_profile(interference="collision"))
HORIZONS = (1800.0, 86400.0)
PARAMS = (ProtocolParams(), ProtocolParams(ttl_init=2, dtn_dist_m=20.0))
RUNS = 3


def main() -> int:
    runs = 0
    spent = {run_once: 0.0, reference.run: 0.0}
    for protocol in PROTOCOLS:
        for shape in SHAPES:
            base = ScenarioConfig(protocol=protocol, runs=RUNS, base_seed=1, **shape)
            for radio in RADIOS:
                for horizon in HORIZONS:
                    for params in PARAMS:
                        config = replace(base, radio=radio, horizon_s=horizon, params=params)
                        for i in range(RUNS):
                            results = []
                            for runner in spent:
                                start = time.perf_counter()
                                results.append(runner(config, i))
                                spent[runner] += time.perf_counter() - start
                            runs += 1
                            if results[0] != results[1]:
                                print(f"run {i} of {config} differs:\n  run_once  {results[0]}"
                                      f"\n  reference {results[1]}")
                                return 1
    print(f"{runs} runs agree; run_once {spent[run_once]:.1f} s, "
          f"reference {spent[reference.run]:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
