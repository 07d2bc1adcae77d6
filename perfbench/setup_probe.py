"""Time one set-up of a workload in a fresh interpreter and print it.

Set-up is importing numpy and qlocker, then building the workload's inputs
(parsing every report's argv, drawing the locker secrets).  ``run.py``
starts this a few times and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD SEED REPORTS
"""

import os
import sys
import time

start = time.perf_counter()

import numpy  # noqa: E402,F401

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import qlocker.cli  # noqa: E402,F401
from workloads import WORKLOADS, build_reports  # noqa: E402

name, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
build_reports(WORKLOADS[name], seed, count)
print(repr(time.perf_counter() - start))
