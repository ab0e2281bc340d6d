"""Time one set-up in a fresh interpreter: import communifind and build a workload.

Usage: python3 perfbench/setup_probe.py <workload> [--tiny]
Prints the elapsed seconds as the only line of standard output.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.build(sys.argv[1], tiny="--tiny" in sys.argv[2:])
print(repr(time.perf_counter() - t0))
