"""Programmatic parameter sweeps.

A light layer over the cached runner for studies beyond the paper's
fixed figures: sweep any of (store, workload, node count, records, RF,
...) and collect a tidy list of rows, ready for export or tabulation.
Used by ``examples/scaling_study.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional

from repro.analysis.cache import ResultCache, default_cache
from repro.analysis.provenance import stamp
from repro.sim.cluster import CLUSTER_M, ClusterSpec
from repro.stores.registry import UnsupportedWorkloadError
from repro.ycsb.runner import BenchmarkResult
from repro.ycsb.workload import Workload

__all__ = ["SweepSpec", "SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepSpec:
    """The cartesian product of configurations to run."""

    stores: tuple[str, ...]
    workloads: tuple[Workload, ...]
    node_counts: tuple[int, ...]
    cluster_spec: ClusterSpec = CLUSTER_M
    records_per_node: int = 10_000
    measured_ops: int = 3000
    warmup_ops: int = 400
    seed: int = 42
    store_kwargs: dict = field(default_factory=dict)

    def points(self) -> Iterable[tuple[str, Workload, int]]:
        """All (store, workload, nodes) combinations, in order."""
        return product(self.stores, self.workloads, self.node_counts)

    def __len__(self) -> int:
        return (len(self.stores) * len(self.workloads)
                * len(self.node_counts))


@dataclass
class SweepResult:
    """Collected results plus tabulation helpers."""

    spec: SweepSpec
    results: list[BenchmarkResult]
    skipped: list[tuple[str, Workload, int, str]]

    def rows(self) -> list[dict]:
        """One flat dict per completed point."""
        return [result.row() for result in self.results]

    def best_by(self, workload_name: str, n_nodes: int,
                metric: str = "throughput_ops") -> Optional[BenchmarkResult]:
        """The winning store for one (workload, scale) cell."""
        candidates = [
            r for r in self.results
            if r.config.workload.name == workload_name
            and r.config.n_nodes == n_nodes
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda r: getattr(r, metric))

    def to_json(self, indent: int = 2) -> str:
        """The sweep as a JSON document with a ``provenance`` stamp.

        The stamp hashes the full :class:`SweepSpec` (including its
        seed), so an exported sweep names the exact configuration
        product that produced it.
        """
        payload = {
            "rows": self.rows(),
            "skipped": [
                {"store": store, "workload": workload.name,
                 "n_nodes": nodes, "reason": reason}
                for store, workload, nodes, reason in self.skipped
            ],
        }
        return json.dumps(stamp(payload, self.spec), indent=indent,
                          sort_keys=True)

    def series(self, store: str, workload_name: str,
               metric: str = "throughput_ops") -> list[tuple[int, float]]:
        """(nodes, metric) points for one store/workload pair."""
        out = []
        for result in self.results:
            if (result.config.store == store
                    and result.config.workload.name == workload_name):
                out.append((result.config.n_nodes,
                            getattr(result, metric)))
        return sorted(out)


def run_sweep(spec: SweepSpec,
              cache: Optional[ResultCache] = None,
              progress=None) -> SweepResult:
    """Run every point of ``spec``; skip store/workload mismatches.

    Stores that cannot run a workload (Voldemort under scans) are
    recorded in ``skipped`` rather than raising, so full-product sweeps
    stay convenient; any other invalid point (a bad node count or
    record count) raises.  ``progress`` is an optional callback
    ``(index, total, store, workload, nodes)``.
    """
    cache = cache or default_cache()
    results: list[BenchmarkResult] = []
    skipped: list[tuple[str, Workload, int, str]] = []
    total = len(spec)
    for index, (store, workload, nodes) in enumerate(spec.points()):
        if progress is not None:
            progress(index, total, store, workload, nodes)
        try:
            result = cache.run(
                store, workload, nodes,
                cluster_spec=spec.cluster_spec,
                records_per_node=spec.records_per_node,
                measured_ops=spec.measured_ops,
                warmup_ops=spec.warmup_ops,
                seed=spec.seed,
                store_kwargs=dict(spec.store_kwargs),
            )
            results.append(result)
        except UnsupportedWorkloadError as error:
            skipped.append((store, workload, nodes, str(error)))
    return SweepResult(spec, results, skipped)
