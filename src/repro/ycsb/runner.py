"""End-to-end benchmark execution.

``run_benchmark`` reproduces the paper's methodology (Section 3) on the
simulated substrate:

1. provision a fresh cluster (Cluster M or D profile) at the requested
   node count — every run starts from a clean install, as the paper's
   scripts did;
2. load the data set (10 M records per node in the paper; scaled down by
   default — the hardware profile's RAM scales by the same factor so the
   memory-bound/disk-bound regime is preserved);
3. open the configured number of client connections (128 per server node
   on Cluster M, fewer where a store's client library forced it);
4. run the workload closed-loop at maximum throughput (or bounded by a
   target rate for the Figure 15/16 experiments) and report throughput
   plus per-operation latencies over the measurement window.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from repro.faults.availability import AvailabilityTimeline
from repro.faults.schedule import FaultSchedule
from repro.overload.policy import OverloadPolicy
from repro.sim.cluster import CLUSTER_M, ClusterSpec, NodeSpec
from repro.sim.disk import DiskSpec
from repro.sim.network import NetworkSpec
from repro.stores.base import OpType, RetryPolicy
from repro.trace import Tracer
from repro.ycsb.client import ClientThread, RunControl
from repro.ycsb.deployment import Deployment, scaled_spec
from repro.ycsb.generator import KeySequence, make_chooser
from repro.ycsb.stats import LatencyHistogram, RunStats
from repro.ycsb.throttle import Throttle
from repro.ycsb.workload import Workload

__all__ = ["BenchmarkConfig", "BenchmarkResult", "UnportableConfigError",
           "run_benchmark", "scaled_spec"]

#: Records per node the paper loads on Cluster M (Section 3).
PAPER_RECORDS_PER_NODE = 10_000_000

#: Schema version of :meth:`BenchmarkConfig.to_dict` payloads.
CONFIG_FORMAT = 1


class UnportableConfigError(ValueError):
    """A configuration that cannot be rebuilt from its dict form.

    Raised by :meth:`BenchmarkConfig.from_dict` when the payload carries
    opaque (fingerprint-only) entries — a fault schedule, a retry policy,
    or non-JSON ``store_kwargs`` values.  Such configs still *hash* and
    *key* deterministically; they just cannot cross a process boundary.
    """


def _opaque(value: Any) -> dict:
    """Reduce a non-JSON value to a stable fingerprint marker."""
    from repro.analysis.provenance import config_fingerprint

    return {"__opaque__": config_fingerprint(value)}


def _portable_value(value: Any) -> Any:
    """A JSON-ready projection of ``value``; opaque where it must be."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _portable_value(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_portable_value(v) for v in value]
    return _opaque(value)


def _contains_opaque(value: Any) -> bool:
    if isinstance(value, dict):
        if "__opaque__" in value:
            return True
        return any(_contains_opaque(v) for v in value.values())
    if isinstance(value, list):
        return any(_contains_opaque(v) for v in value)
    return False


@dataclass(frozen=True)
class BenchmarkConfig:
    """Everything that defines one benchmark data point."""

    store: str
    workload: Workload
    n_nodes: int
    cluster_spec: ClusterSpec = CLUSTER_M
    records_per_node: int = 100_000
    paper_records_per_node: int = PAPER_RECORDS_PER_NODE
    measured_ops: int = 6000
    warmup_ops: int = 800
    seed: int = 42
    #: Bound the offered load (ops/s); ``None`` = maximum throughput.
    target_throughput: Optional[float] = None
    store_kwargs: dict = field(default_factory=dict)
    #: Chaos plan applied during the run (``None`` = fault-free).
    fault_schedule: Optional[FaultSchedule] = None
    #: Run for a fixed simulated time instead of a fixed operation count
    #: — the natural framing for chaos experiments, where the schedule is
    #: anchored to absolute times.
    duration_s: Optional[float] = None
    #: Bucket width of the availability timeline.
    availability_window_s: float = 0.25
    #: Override the store's default client retry policy.
    retry: Optional[RetryPolicy] = None
    #: Overload-resilience policy: bounded queues, deadlines, admission
    #: control and retry budgets (``None`` = the unprotected stack).
    overload: Optional[OverloadPolicy] = None
    #: Sample every Nth measured operation into a span trace
    #: (``None`` = tracing off).  Sampling is deterministic, so a fixed
    #: seed yields identical traces across runs.
    trace_sample_every: Optional[int] = None
    #: Cap on retained traces (oldest kept; later samples only counted).
    trace_max_traces: int = 2000
    #: Sampling interval of the metrics timeseries, in simulated seconds
    #: (``None`` = metrics off; the zero-cost fast path).
    metrics_interval_s: Optional[float] = None
    #: Sub-windows the sustained-throughput check splits the window into.
    sustained_subwindows: int = 4
    #: Max (peak - floor) / peak degradation still counted as sustained.
    sustained_tolerance: float = 0.25

    def __post_init__(self):
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.warmup_ops < 0:
            raise ValueError("warmup_ops must be >= 0")
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.records_per_node < 1:
            raise ValueError("records_per_node must be >= 1")
        for name in ("duration_s", "availability_window_s",
                     "metrics_interval_s"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        # NaN stays valid: the orchestrator's planner marks a config it
        # must not cache with a NaN target; 0 means unthrottled.
        if self.target_throughput is not None and self.target_throughput < 0:
            raise ValueError("target_throughput must be >= 0")
        if (self.trace_sample_every is not None
                and self.trace_sample_every < 1):
            raise ValueError("trace_sample_every must be >= 1")
        if self.sustained_subwindows < 2:
            raise ValueError("sustained_subwindows must be >= 2")
        if not 0.0 <= self.sustained_tolerance <= 1.0:
            raise ValueError("sustained_tolerance must be in [0, 1]")

    # -- serialisation and content addressing -------------------------------
    #
    # ``to_dict`` is the single source of truth for a config's identity:
    # the cache key (:meth:`content_key`), the content hash
    # (:meth:`content_hash`, used by the on-disk result store) and the
    # wire form (:meth:`from_dict`) are all derived from it, so they can
    # never silently diverge.  ``tests/orchestrator/test_serialize.py``
    # additionally asserts every dataclass field appears in the payload.

    def to_dict(self) -> dict:
        """A stable, JSON-ready projection of this configuration.

        Always succeeds: values that have no JSON form (a fault
        schedule, a retry policy, exotic ``store_kwargs``) are reduced
        to ``{"__opaque__": <fingerprint>}`` markers so the projection
        still identifies the config uniquely; such payloads are rejected
        by :meth:`from_dict` (see :meth:`is_portable`).
        """
        workload = self.workload
        return {
            "format": CONFIG_FORMAT,
            "store": self.store,
            "workload": {
                "name": workload.name,
                "read_proportion": workload.read_proportion,
                "insert_proportion": workload.insert_proportion,
                "scan_proportion": workload.scan_proportion,
                "update_proportion": workload.update_proportion,
                "delete_proportion": workload.delete_proportion,
                "scan_length": workload.scan_length,
                "distribution": workload.distribution,
            },
            "n_nodes": self.n_nodes,
            "cluster_spec": asdict(self.cluster_spec),
            "records_per_node": self.records_per_node,
            "paper_records_per_node": self.paper_records_per_node,
            "measured_ops": self.measured_ops,
            "warmup_ops": self.warmup_ops,
            "seed": self.seed,
            "target_throughput": self.target_throughput,
            "store_kwargs": _portable_value(self.store_kwargs),
            "fault_schedule": (None if self.fault_schedule is None
                               else _opaque(self.fault_schedule)),
            "duration_s": self.duration_s,
            "availability_window_s": self.availability_window_s,
            "retry": None if self.retry is None else _opaque(self.retry),
            "overload": (None if self.overload is None
                         else self.overload.to_dict()),
            "trace_sample_every": self.trace_sample_every,
            "trace_max_traces": self.trace_max_traces,
            "metrics_interval_s": self.metrics_interval_s,
            "sustained_subwindows": self.sustained_subwindows,
            "sustained_tolerance": self.sustained_tolerance,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchmarkConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Raises :class:`UnportableConfigError` for payloads carrying
        opaque markers, and :class:`ValueError` for unknown formats.
        """
        if payload.get("format") != CONFIG_FORMAT:
            raise ValueError(
                f"unsupported config format {payload.get('format')!r} "
                f"(expected {CONFIG_FORMAT})")
        if _contains_opaque(payload):
            raise UnportableConfigError(
                "config payload carries opaque (non-serialisable) values; "
                "fault schedules and retry policies cannot cross a "
                "process boundary")
        spec_d = payload["cluster_spec"]
        node_d = spec_d["node"]
        node = NodeSpec(**{**node_d, "disk": DiskSpec(**node_d["disk"])})
        spec = ClusterSpec(**{**spec_d, "node": node,
                              "network": NetworkSpec(**spec_d["network"])})
        return cls(
            store=payload["store"],
            workload=Workload(**payload["workload"]),
            n_nodes=payload["n_nodes"],
            cluster_spec=spec,
            records_per_node=payload["records_per_node"],
            paper_records_per_node=payload["paper_records_per_node"],
            measured_ops=payload["measured_ops"],
            warmup_ops=payload["warmup_ops"],
            seed=payload["seed"],
            target_throughput=payload["target_throughput"],
            store_kwargs=dict(payload["store_kwargs"]),
            duration_s=payload["duration_s"],
            availability_window_s=payload["availability_window_s"],
            overload=(None if payload.get("overload") is None
                      else OverloadPolicy.from_dict(payload["overload"])),
            trace_sample_every=payload["trace_sample_every"],
            trace_max_traces=payload["trace_max_traces"],
            metrics_interval_s=payload["metrics_interval_s"],
            sustained_subwindows=payload["sustained_subwindows"],
            sustained_tolerance=payload["sustained_tolerance"],
        )

    @property
    def is_portable(self) -> bool:
        """Whether :meth:`from_dict` can rebuild this config."""
        return not _contains_opaque(self.to_dict())

    def content_key(self) -> str:
        """Canonical identity string (the cache key) of this config."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def content_hash(self) -> str:
        """sha256 hex digest of :meth:`content_key` (store address)."""
        return hashlib.sha256(self.content_key().encode()).hexdigest()

    def label(self) -> str:
        """A short human-readable point label for logs and progress."""
        parts = [f"{self.store}/{self.workload.name}/n{self.n_nodes}",
                 f"cluster={self.cluster_spec.name}"]
        if self.target_throughput is not None:
            parts.append(f"target={self.target_throughput:.0f}")
        return " ".join(parts)


@dataclass
class BenchmarkResult:
    """One benchmark data point: configuration plus measurements."""

    config: BenchmarkConfig
    stats: RunStats
    connections: int
    store_errors: int
    disk_bytes_per_server: list[int]
    #: ``(time, description)`` log of every fault the controller applied.
    fault_log: list = field(default_factory=list)
    #: Sampled span traces (empty unless ``trace_sample_every`` was set).
    traces: list = field(default_factory=list)
    #: Telemetry bundle (``None`` unless ``metrics_interval_s`` was set).
    metrics: Optional["MetricsReport"] = None
    #: Observability layer (``None`` unless ``run_benchmark`` got an
    #: ``obs`` policy): SLO alerts, exemplars, tail sampling, flight
    #: recorder.  Deliberately *not* part of :class:`BenchmarkConfig` —
    #: watching a run must not change its identity (content key).
    obs: Optional[object] = None

    @property
    def breakdown(self):
        """Per-component latency attribution (``None`` without tracing)."""
        return self.stats.breakdown

    @property
    def timeline(self) -> Optional[AvailabilityTimeline]:
        """Windowed throughput/error series (chaos and timed runs only)."""
        return self.stats.timeline

    @property
    def throughput_ops(self) -> float:
        """Operations per (simulated) second over the measurement window."""
        return self.stats.throughput

    def _histogram(self, op: OpType) -> LatencyHistogram:
        return self.stats.histogram(op)

    @property
    def read_latency(self) -> LatencyHistogram:
        """Latency histogram of read operations."""
        return self._histogram(OpType.READ)

    @property
    def write_latency(self) -> LatencyHistogram:
        """Latency histogram of insert (write) operations."""
        merged = LatencyHistogram()
        for op in (OpType.INSERT, OpType.UPDATE):
            if op in self.stats.histograms:
                merged.merge(self.stats.histograms[op])
        return merged

    @property
    def scan_latency(self) -> LatencyHistogram:
        """Latency histogram of scan operations."""
        return self._histogram(OpType.SCAN)

    def row(self) -> dict:
        """A flat record for tabular reporting."""
        return {
            "store": self.config.store,
            "workload": self.config.workload.name,
            "nodes": self.config.n_nodes,
            "cluster": self.config.cluster_spec.name,
            "throughput_ops": round(self.throughput_ops, 1),
            "read_ms": round(self.read_latency.mean * 1000, 3),
            "write_ms": round(self.write_latency.mean * 1000, 3),
            "scan_ms": round(self.scan_latency.mean * 1000, 3),
            "errors": self.stats.errors + self.store_errors,
            "error_pct": round(100.0 * self.stats.error_rate, 2),
        }


def run_benchmark(store: str, workload: Workload, n_nodes: int,
                  config: Optional[BenchmarkConfig] = None,
                  obs=None, audit=None, **overrides) -> BenchmarkResult:
    """Run one benchmark data point and return its measurements.

    ``store`` is a registry name ("cassandra", "hbase", "voldemort",
    "redis", "voltdb", "mysql"); extra keyword arguments override
    :class:`BenchmarkConfig` fields.

    ``obs`` optionally attaches an :class:`~repro.obs.policy.ObsPolicy`
    observability overlay (SLO burn-rate alerting, exemplar-linked tail
    sampling, flight recorder).  It is a separate parameter, not a
    config field: observing a run must not change its content key or
    provenance fingerprint.

    ``audit`` optionally attaches a
    :class:`~repro.audit.history.HistoryRecorder` that logs every
    client operation's invocation/ack for the audit checkers.  Like
    ``obs`` it lives outside the config: auditing a run must leave it
    op-for-op identical to a bare one.
    """
    if config is None:
        config = BenchmarkConfig(store=store, workload=workload,
                                 n_nodes=n_nodes, **overrides)
    workload = config.workload
    deployment = Deployment(config)
    cluster, deployed = deployment.cluster, deployment.store
    sim = deployment.sim

    sequence = KeySequence(deployment.total_records)
    stats = RunStats()
    if (config.fault_schedule is not None or config.duration_s is not None
            or config.metrics_interval_s is not None):
        window_s = config.availability_window_s
        if config.metrics_interval_s is not None:
            # The sustained check splits the measurement window into
            # sub-windows; the op timeline must resolve finer than those.
            window_s = min(window_s, config.metrics_interval_s)
        stats.timeline = AvailabilityTimeline(window_s)
    n_connections = deployment.n_connections
    if config.duration_s is not None:
        # Time-bounded run: the clock, not an op count, ends measurement.
        warmup_ops = config.warmup_ops
        measured_ops = 1 << 62
    else:
        # The measurement window must span many "rounds" of the closed
        # loop (and, for buffering clients, several buffer cycles), or
        # boundary effects dominate the throughput estimate.
        min_warmup, min_measured = deployed.min_window(n_connections)
        warmup_ops = max(config.warmup_ops, min_warmup)
        measured_ops = max(config.measured_ops, min_measured)
    control = RunControl(warmup_ops, measured_ops)
    throttle = (Throttle(sim, config.target_throughput)
                if config.target_throughput else None)
    # Process creation order breaks ties at equal simulated times, so
    # the start order stays: chaos, sampler, observability, clients.
    chaos = deployment.chaos
    if chaos is not None:
        chaos.start()
    tracer = None
    if obs is None and config.trace_sample_every is not None:
        tracer = Tracer(sim, sample_every=config.trace_sample_every,
                        max_traces=config.trace_max_traces)
    registry = sampler = None
    if config.metrics_interval_s is not None:
        registry, sampler = deployment.attach_metrics(
            config.metrics_interval_s)
        sampler.start()
    obs_layer = None
    if obs is not None:
        from repro.obs import ObsLayer
        # Tail sampling replaces head sampling: the keep/drop decision
        # moves to span-tree completion, with ``trace_sample_every``
        # (when set) gating which operations are candidates at all.
        obs_layer = ObsLayer(sim, obs, registry=registry,
                             candidate_every=config.trace_sample_every)
        tracer = obs_layer.tracer
        deployment.attach_obs(obs_layer)
        obs_layer.start()
    from repro.sim.rng import RngRegistry
    rngs = RngRegistry(config.seed)
    threads = []
    for i in range(n_connections):
        session = deployed.session(cluster.client_for_connection(i), i)
        rng = rngs.stream(f"thread-{i}")
        chooser = make_chooser(workload.distribution,
                               deployment.total_records, sequence, rng)
        threads.append(ClientThread(
            session, workload, chooser, sequence, stats, control, rng,
            deployment, throttle, tracer=tracer, obs=obs_layer,
            audit=audit,
        ))
    processes = [sim.process(t.run(), name=f"client-{i}")
                 for i, t in enumerate(threads)]
    if config.duration_s is not None:
        sim.run(until=config.duration_s)
        control.done = True
        stats.finished_at = sim.now
        # Let every thread finish its in-flight operation (not measured:
        # ``done`` is already set) so no process is left mid-IO.
        sim.run(until=sim.all_of(processes))
    else:
        sim.run(until=sim.all_of(processes))
        if stats.finished_at == 0.0:
            stats.finished_at = sim.now

    metrics = None
    if sampler is not None:
        from repro.metrics import (MetricsReport, analyze_saturation,
                                   verify_sustained)
        sampler.close()
        t0, t1 = stats.started_at, stats.finished_at
        saturation = sustained = None
        if t1 > t0:
            saturation = analyze_saturation(sampler.series, cluster, t0, t1,
                                            store_name=deployed.name)
            if stats.timeline is not None:
                sustained = verify_sustained(
                    stats.timeline, t0, t1,
                    subwindows=config.sustained_subwindows,
                    tolerance=config.sustained_tolerance)
        metrics = MetricsReport(registry=registry, series=sampler.series,
                                saturation=saturation, sustained=sustained,
                                exemplars=(obs_layer.exemplars
                                           if obs_layer is not None
                                           else None))
    if obs_layer is not None:
        obs_layer.close()

    return BenchmarkResult(
        config=config,
        stats=stats,
        connections=n_connections,
        store_errors=deployed.errors,
        disk_bytes_per_server=deployed.disk_bytes_per_server(),
        fault_log=list(chaos.log) if chaos is not None else [],
        traces=list(tracer.traces) if tracer is not None else [],
        metrics=metrics,
        obs=obs_layer,
    )
