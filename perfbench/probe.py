"""Set-up probe: a fresh interpreter imports the library and its CLI, runs
the workload's warm-up op and says "ready".  run.py times it from spawn to
that line.  Usage: python3 perfbench/probe.py <workload>"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (imports recurrencelab and recurrencelab.cli)

workloads.WORKLOADS[sys.argv[1]].warmup()
print("ready", flush=True)
