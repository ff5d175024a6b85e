"""Time one workload's set-up in this (fresh) interpreter.

Usage: ``python3 perfbench/cold_setup.py <workload> <workdir>``; prints
the wall seconds taken by imports plus serving-stack construction (the
same span :func:`perfbench.run.main` times in its own process), then
the seconds and count of the host-speed probes that ran meanwhile.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.hostspeed import probed  # noqa: E402 - stdlib only
from perfbench.workloads import WORKLOADS  # noqa: E402 - stdlib only

workload = WORKLOADS[sys.argv[1]]
handle, (wall_s, probe_s, probes) = probed(workload.setup, Path(sys.argv[2]))
workload.close(handle)
print(wall_s, probe_s, probes)
