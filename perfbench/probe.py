"""Set-up time of one workload in a fresh interpreter: import locatesim, build the configs.

    python3 perfbench/probe.py carry-24h    # prints the seconds taken, scaled

The clock starts after interpreter start-up and stops once the workload's
configs exist. The time is then scaled to the reference machine speed by
calibrations taken right after (see speed.py); nothing the calibration uses is
imported before the clock stops. run.py reports the median over several
probes as setup_s.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

CALIBRATIONS = 15

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports locatesim only inside its functions)

w = workloads.serial(sys.argv[1])
if w is not None:
    workloads.configs(w)
else:
    import locatesim.cli  # noqa: F401  (the sweep workload goes through the CLI)
    workloads.sweep_point_configs(workloads.SWEEP_RUNS[1])
took = time.perf_counter() - t0

import statistics  # noqa: E402

import speed  # noqa: E402

took *= speed.REFERENCE_S / statistics.median(speed.calibrate() for _ in range(CALIBRATIONS))
print(repr(took))
