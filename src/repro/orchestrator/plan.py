"""Grid planning: which benchmark points a reproduction needs.

Figure builders (:mod:`repro.analysis.figures`) request points
imperatively through a cache, so the grid behind a set of figures is not
a static product — Figures 15/16, for example, derive their bounded-load
points from the *measured* maximum throughput of a base point.  The
planner recovers the grid anyway by **probing**: it runs every builder
against a :class:`PlanningCache` that serves real results from the
on-disk store where they exist and hands back NaN-valued stubs
everywhere else, recording each missing config.

NaN acts as taint: any config whose fields were computed *from* a stub
value (a bounded-load target derived from a stub throughput) carries NaN
itself and is deferred rather than scheduled.  Executing one wave of
missing points and re-probing therefore converges — each wave resolves
one layer of result-dependence, and figure grids are at most two layers
deep.

The planner is also where cache-aware scheduling happens: points present
in the store are never scheduled, and points shared between figures
(Figures 3/4/5 share one sweep) are deduplicated by content hash.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.cache import ResultCache
from repro.analysis.figures import FIGURES, BenchProfile
from repro.stores.registry import scan_mismatch
from repro.ycsb.runner import BenchmarkConfig

__all__ = ["GridPlan", "PlanningCache", "plan_figures", "derive_seed",
           "sweep_configs", "estimate_cost_units"]


def derive_seed(base_seed: int, label: str) -> int:
    """A per-point seed derived deterministically from a base seed.

    Hash-based (sha256), so the seed of a point depends only on the base
    seed and the point's identity — never on execution order, worker id
    or wall clock.  Used by grid sweeps that want statistically
    independent points while staying exactly reproducible.
    """
    digest = hashlib.sha256(f"{base_seed}|{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**31 - 1)


class _StubHistogram:
    """Placeholder histogram whose every statistic is NaN."""

    mean = math.nan
    max = math.nan
    min = math.nan
    count = 0
    errors = 0

    @staticmethod
    def percentile(p: float) -> float:
        return math.nan


class _StubResult:
    """Placeholder result handed out for unexecuted points.

    Every metric is NaN so that values *derived* from it — and any
    config built from those values — are recognisably tainted.
    """

    def __init__(self, config: BenchmarkConfig):
        self.config = config
        self.connections = 0
        self.store_errors = 0
        self.disk_bytes_per_server: list[int] = []
        self.throughput_ops = math.nan
        self.read_latency = _StubHistogram()
        self.write_latency = _StubHistogram()
        self.scan_latency = _StubHistogram()

    def row(self) -> dict:
        return {"store": self.config.store,
                "workload": self.config.workload.name,
                "nodes": self.config.n_nodes,
                "planned": True}


def _config_is_tainted(config: BenchmarkConfig) -> bool:
    """Whether any numeric field of ``config`` is NaN (stub-derived)."""

    def tainted(value) -> bool:
        if isinstance(value, float):
            return math.isnan(value)
        if isinstance(value, dict):
            return any(tainted(v) for v in value.values())
        if isinstance(value, list):
            return any(tainted(v) for v in value)
        return False

    return tainted(config.to_dict())


class PlanningCache(ResultCache):
    """A cache that *records* misses instead of running them.

    Reads through to the on-disk store (real results flow into the
    probe, keeping derived configs accurate) and returns NaN stubs for
    everything else.
    """

    def __init__(self, store=None):
        super().__init__(runner=self._plan_runner)
        self._disk = store
        #: content hash -> missing config, in first-seen order.
        self.missing: dict[str, BenchmarkConfig] = {}
        #: Count of stub-derived (deferred) configs seen this pass.
        self.deferred = 0
        self.planned_disk_hits = 0

    def _plan_runner(self, config: BenchmarkConfig):
        if self._disk is not None:
            stored = self._disk.get(config)
            if stored is not None:
                self.planned_disk_hits += 1
                return stored
        if _config_is_tainted(config):
            self.deferred += 1
        else:
            self.missing.setdefault(config.content_hash(), config)
        return _StubResult(config)


@dataclass
class GridPlan:
    """One probing pass over a set of figures."""

    figures: list[str]
    profile: BenchProfile
    #: Configs to execute this wave (deduplicated, store misses only).
    missing: list[BenchmarkConfig]
    #: Points already satisfied by the on-disk store.
    cached: int
    #: Result-dependent points that become plannable after this wave.
    deferred: int
    skipped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether every figure can be built from the store right now."""
        return not self.missing and not self.deferred

    def estimated_cost_units(self) -> float:
        """Rough relative cost of the missing points (see below)."""
        return sum(estimate_cost_units(c) for c in self.missing)

    def describe(self) -> str:
        """Multi-line human-readable plan summary."""
        points = f"points:   {len(self.missing)} to run, {self.cached} cached"
        if self.deferred:
            points += (f", {self.deferred} deferred (result-dependent; "
                       "planned after the first wave)")
        units = self.estimated_cost_units()
        lines = [
            f"figures:  {', '.join(self.figures)}",
            f"profile:  {self.profile.name}",
            points,
            f"est cost: {units:,.0f} units "
            f"(~{units * SECONDS_PER_UNIT:,.1f} s single-threaded, rough)",
        ]
        for config in self.missing:
            lines.append(f"  [run ] {config.label()}  "
                         f"#{config.content_hash()[:12]}")
        for store_name, reason in self.skipped:
            lines.append(f"  [skip] {store_name}: {reason}")
        return "\n".join(lines)


#: Calibration constant for the rough wall-time estimate (seconds per
#: cost unit on one worker; measured on a single modern core).
SECONDS_PER_UNIT = 2.5e-4


def estimate_cost_units(config: BenchmarkConfig) -> float:
    """Relative execution cost of one point.

    Load cost scales with total records; run cost with operations (which
    fan out across more simulated machinery at higher node counts).
    Calibration is deliberately rough — the estimate exists for dry-run
    ETAs, not billing.
    """
    load = config.records_per_node * config.n_nodes
    run = (config.warmup_ops + config.measured_ops) * (
        1.0 + 0.25 * config.n_nodes)
    return load * 0.2 + run


def plan_figures(figure_ids: Iterable[str], profile: BenchProfile,
                 store=None) -> GridPlan:
    """One probing pass: the wave of points the figures still need."""
    figure_ids = list(figure_ids)
    planner = PlanningCache(store)
    for figure_id in figure_ids:
        try:
            builder = FIGURES[figure_id]
        except KeyError:
            known = ", ".join(FIGURES)
            raise ValueError(
                f"unknown figure {figure_id!r}; known: {known}")
        builder(planner, profile)
    return GridPlan(
        figures=figure_ids,
        profile=profile,
        missing=list(planner.missing.values()),
        cached=planner.planned_disk_hits,
        deferred=planner.deferred,
    )


def sweep_configs(spec, derive_seeds: bool = False,
                  ) -> tuple[list[BenchmarkConfig], list[tuple[str, str]]]:
    """Expand a :class:`~repro.analysis.sweep.SweepSpec` into configs.

    Store/workload mismatches (scan workloads on stores without scan
    support) are returned as ``(store, reason)`` skips, mirroring
    :func:`repro.analysis.sweep.run_sweep`.  With ``derive_seeds`` each
    point gets an independent :func:`derive_seed` seed instead of the
    spec-wide one.
    """
    configs: list[BenchmarkConfig] = []
    skipped: list[tuple[str, str]] = []
    for store_name, workload, nodes in spec.points():
        reason = scan_mismatch(store_name, workload)
        if reason is not None:
            skipped.append((store_name, reason))
            continue
        seed = spec.seed
        if derive_seeds:
            seed = derive_seed(
                spec.seed, f"{store_name}/{workload.name}/{nodes}")
        configs.append(BenchmarkConfig(
            store=store_name, workload=workload, n_nodes=nodes,
            cluster_spec=spec.cluster_spec,
            records_per_node=spec.records_per_node,
            measured_ops=spec.measured_ops,
            warmup_ops=spec.warmup_ops,
            seed=seed,
            store_kwargs=dict(spec.store_kwargs),
        ))
    return configs, skipped
