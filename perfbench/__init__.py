"""Benchmark harness for mfcontrast: workloads, correctness checks and a
traced run that attributes wall time to layers. Run it as
``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root.
"""
