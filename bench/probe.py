"""Time one cold set-up of a workload in this fresh interpreter.

Usage: python3 bench/probe.py <workload> [--smoke]

Set-up is everything before the first request: importing the package and
building, resolving and splitting the workload's arrangement into block
systems.  Prints the seconds it took as the only line of output.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (its import is part of the timed set-up)

sizes = workloads.SMOKE if "--smoke" in sys.argv[2:] else workloads.FULL
workloads.setup(workloads.load_package(), sys.argv[1], sizes)
print(time.perf_counter() - t0)
