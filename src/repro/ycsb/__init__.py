"""A YCSB-style benchmark framework (Section 3 of the paper).

The framework mirrors the Yahoo! Cloud Serving Benchmark abstractions the
paper built on:

* :mod:`repro.ycsb.workload` — operation mixes; Table 1's five workloads
  (R, RW, W, RS, RSW) are predefined.
* :mod:`repro.ycsb.generator` — key choosers (uniform, zipfian, latest)
  and deterministic record/value generation (25-byte keys, five 10-byte
  fields).
* :mod:`repro.ycsb.stats` — latency histograms and run summaries.
* :mod:`repro.ycsb.throttle` — target-throughput limiting for the
  bounded-load experiments (Figures 15/16).
* :mod:`repro.ycsb.client` — closed-loop client threads and the one
  retry loop every driver issues operations through.
* :mod:`repro.ycsb.deployment` — one provisioned, loaded store
  deployment, shared by the closed-loop and open-loop drivers.
* :mod:`repro.ycsb.runner` — end-to-end benchmark execution on a
  simulated cluster: provision, load, run, measure.
"""

from repro.ycsb.workload import (
    WORKLOAD_R,
    WORKLOAD_RS,
    WORKLOAD_RSW,
    WORKLOAD_RW,
    WORKLOAD_W,
    WORKLOADS,
    Workload,
)
from repro.ycsb.runner import BenchmarkConfig, BenchmarkResult, run_benchmark

__all__ = [
    "BenchmarkConfig",
    "BenchmarkResult",
    "WORKLOADS",
    "WORKLOAD_R",
    "WORKLOAD_RS",
    "WORKLOAD_RSW",
    "WORKLOAD_RW",
    "WORKLOAD_W",
    "Workload",
    "run_benchmark",
]
