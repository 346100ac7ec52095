"""Benchmark for qwlab: four workloads, end-to-end metrics and per-layer tracing.

Run one workload with ``python3 qwbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see README.md.
"""

WORKLOADS = ("exact", "contour", "profiles", "gamma-limits")
