"""Open-loop goodput measurement: offered load vs. useful work.

The paper's YCSB harness is *closed-loop*: a fixed set of synchronous
threads each wait for their previous operation, so offered load drops
automatically when the cluster slows — congestion collapse is invisible
by construction.  Real APM agents are *open-loop*: metric insertions
arrive on a wall-clock schedule whether or not the store keeps up
(Section 2's 11k+ inserts/s per monitored system), and a saturated
cluster faces unbounded queue growth.

This module provides that missing harness:

* :func:`run_overload_point` drives one store at a fixed offered rate
  with deterministic fixed-interval arrivals, each operation running as
  its own simulated process, and reports *goodput* — operations that
  succeeded within the SLO — plus rejection/expiry/queue-depth evidence;
* :func:`find_saturation` locates the peak sustainable closed-loop
  throughput (the sustained floor from ``repro.metrics`` when telemetry
  is on, the plain measured throughput otherwise);
* :func:`goodput_sweep` sweeps offered load past the saturation point
  (e.g. to 2x) with the overload protections on and off, producing the
  protected-vs-unprotected comparison the overload benchmark asserts on.

Everything runs on simulated time with seeded randomness only, so a
fixed configuration yields byte-identical sweep payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

from repro.metrics.timeseries import WindowedSeries
from repro.overload.shapes import ArrivalShape
from repro.sim.rng import RngRegistry
from repro.ycsb.client import draw_operation
from repro.ycsb.deployment import Deployment
from repro.ycsb.generator import KeySequence, make_chooser
from repro.ycsb.runner import BenchmarkConfig, run_benchmark
from repro.ycsb.stats import LatencyHistogram

__all__ = ["OpenLoopRun", "OverloadPoint", "OverloadSweep",
           "SaturationEstimate", "default_slo_s", "find_saturation",
           "goodput_sweep", "run_overload_point"]

#: Default SLO when the configuration carries no deadline: the paper's
#: latency figures put healthy operations well under this bound.
DEFAULT_SLO_S = 0.25

#: Simulated seconds between two samples of the queue monitor.
QUEUE_SAMPLE_S = 0.02


def default_slo_s(config: BenchmarkConfig) -> float:
    """The goodput SLO for ``config``: its overload deadline, else
    :data:`DEFAULT_SLO_S`."""
    overload = config.overload
    return (overload is not None and overload.deadline_s) or DEFAULT_SLO_S


@dataclass(frozen=True)
class OverloadPoint:
    """One open-loop measurement at a fixed offered rate."""

    store: str
    workload: str
    n_nodes: int
    protected: bool
    offered_rate: float
    duration_s: float
    slo_s: float
    #: Operations that arrived inside the measurement window.
    arrivals: int
    #: In-window arrivals that succeeded within the SLO.
    in_slo: int
    #: In-window arrivals that succeeded at all.
    succeeded: int
    #: In-window arrivals that failed, by kind (see ``ERROR_KINDS``).
    error_kinds: dict
    #: Useful work per second: ``in_slo / duration_s``.
    goodput: float
    #: Mean latency of completed in-window operations (seconds).
    mean_latency_s: float
    #: Deepest backlog the queue monitor observed (channels + node CPUs).
    max_queue_depth: int
    #: Operations the store refused at admission (queues + gates + shed).
    shed: int
    #: Arrival-shape projection (``None`` for constant-rate arrivals).
    shape: Optional[dict] = None

    def to_dict(self) -> dict:
        """A JSON-ready projection (stable key order via sort_keys)."""
        return {
            "store": self.store,
            "workload": self.workload,
            "n_nodes": self.n_nodes,
            "protected": self.protected,
            "offered_rate": self.offered_rate,
            "duration_s": self.duration_s,
            "slo_s": self.slo_s,
            "arrivals": self.arrivals,
            "in_slo": self.in_slo,
            "succeeded": self.succeeded,
            "error_kinds": {k: self.error_kinds[k]
                            for k in sorted(self.error_kinds)},
            "goodput": self.goodput,
            "mean_latency_s": self.mean_latency_s,
            "max_queue_depth": self.max_queue_depth,
            "shed": self.shed,
            "shape": self.shape,
        }


@dataclass(frozen=True)
class SaturationEstimate:
    """Peak sustainable throughput for one configuration."""

    #: The rate the sweep multiplies: the open-loop capacity when the
    #: estimate was refined, else the sustained floor when telemetry
    #: verified one, else the measured closed-loop throughput.
    rate: float
    #: Raw closed-loop throughput of the probe run.
    throughput: float
    #: Sustained floor/peak from ``repro.metrics`` (``None`` without
    #: telemetry).
    floor: Optional[float]
    peak: Optional[float]
    #: Open-loop goodput capacity (``None`` when refinement was off).
    open_loop: Optional[float] = None

    def to_dict(self) -> dict:
        return {"rate": self.rate, "throughput": self.throughput,
                "floor": self.floor, "peak": self.peak,
                "open_loop": self.open_loop}


@dataclass
class OverloadSweep:
    """A protected-vs-unprotected goodput sweep over offered load."""

    config: BenchmarkConfig
    saturation: SaturationEstimate
    multipliers: tuple
    protected: list = field(default_factory=list)
    unprotected: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "saturation": self.saturation.to_dict(),
            "multipliers": list(self.multipliers),
            "protected": [p.to_dict() for p in self.protected],
            "unprotected": [p.to_dict() for p in self.unprotected],
        }


class OpenLoopRun:
    """Open-loop driver: scheduled arrivals against a deployment.

    Construction checks the drive's parameters, so a bad value fails
    before any deployment is built.  :meth:`run` then drives one
    :class:`~repro.ycsb.deployment.Deployment`: it starts the chaos
    controller, the queue monitor and the arrival process, in that
    order, after whatever the caller started first (a metrics sampler,
    an observability layer, a controller).  One instance drives one
    deployment.  Measured operations land in one
    :class:`LatencyHistogram` and, with ``timeline_s``, in a
    :class:`WindowedSeries` indexed by arrival time.
    """

    def __init__(self, offered_rate: float, duration_s: float,
                 warmup_s: float, slo_s: float,
                 shape: Optional[ArrivalShape] = None,
                 timeline_s: Optional[float] = None):
        for name, value in (("offered_rate", offered_rate),
                            ("duration_s", duration_s), ("slo_s", slo_s)):
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")
        if not 0 <= warmup_s < math.inf:
            raise ValueError(
                f"warmup_s must be >= 0 and finite, got {warmup_s}")
        self.offered_rate = offered_rate
        self.duration_s = duration_s
        self.warmup_s = warmup_s
        self.slo_s = slo_s
        self.shape = shape
        self.latency = LatencyHistogram()
        #: Measured successes within ``slo_s``.  Kept apart from
        #: ``latency``: a bucketed histogram cannot answer "<= slo_s".
        self.in_slo = 0
        self.series = (None if timeline_s is None
                       else WindowedSeries(timeline_s))
        self.max_queue_depth = 0
        self._draining = False

    # -- processes -----------------------------------------------------------

    def _queue_depth(self) -> int:
        depth = self.deployment.store.overload_queue_depth()
        for node in self.deployment.cluster.servers:
            depth += node.cpus.queue_length
        return int(depth)

    def _monitor(self):
        while not self._draining:
            depth = self._queue_depth()
            if depth > self.max_queue_depth:
                self.max_queue_depth = depth
            yield self.sim.timeout(QUEUE_SAMPLE_S)

    def _one_op(self, index: int, measured: bool, op, key, fields,
                scan_length):
        sim = self.sim
        session = self.sessions[index % len(self.sessions)]
        arrival = sim.now
        obs = self.obs
        trace = None
        if (obs is not None and measured
                and obs.tracer.should_sample()):
            trace = obs.tracer.begin(op.value, key,
                                     index % len(self.sessions))
        kind, __ = yield from self.deployment.attempt(
            session, op, key, fields, scan_length, arrival)
        error = kind is not None
        if trace is not None:
            obs.tracer.complete(trace, error, kind)
        if not measured:
            return
        latency = sim.now - arrival
        if obs is not None:
            obs.note_op(op.value, latency, error, kind, trace)
        self.latency.record(latency, error, kind)
        series = self.series
        if series is not None:
            series.add(arrival, "arrivals")
        if not error and latency <= self.slo_s:
            self.in_slo += 1
            if series is not None:
                series.add(arrival, "in_slo")

    def _arrivals(self):
        """Process: one operation process per arrival, then drain.

        A constant rate issues exactly ``round(horizon * rate)`` arrivals
        spaced ``1 / rate`` apart; a shape spaces them by its
        instantaneous rate until the horizon.
        """
        sim = self.sim
        end = self.warmup_s + self.duration_s
        total = (int(round(end * self.offered_rate)) if self.shape is None
                 else None)
        procs = []
        while (len(procs) < total if total is not None
               else sim.now < end):
            i = len(procs)
            arrival = sim.now
            op, key, fields, scan_length = self._draw()
            procs.append(sim.process(
                self._one_op(i, arrival >= self.warmup_s, op, key, fields,
                             scan_length),
                name=f"open-op-{i}"))
            rate = (self.offered_rate if self.shape is None else
                    max(self.shape.rate_at(arrival, self.offered_rate), 1e-9))
            yield sim.timeout(1.0 / rate)
        # Let every in-flight operation drain before the run ends.
        yield sim.all_of(procs)
        self._draining = True

    def timeline(self) -> list:
        """Per-window arrival/in-SLO tallies (needs ``timeline_s``).

        Windows are indexed by arrival time and listed only when they
        hold a measured arrival; the list is sorted and JSON-ready, the
        availability evidence for recovery assertions.
        """
        if self.series is None:
            raise ValueError("run was built without timeline_s")
        return [
            {
                "t0": window.start,
                "t1": window.end,
                "arrivals": int(window.get("arrivals")),
                "in_slo": int(window.get("in_slo")),
            }
            for window in self.series.windows() if window.get("arrivals")
        ]

    def run(self, deployment: Deployment, obs=None) -> OverloadPoint:
        """Drive ``deployment`` to completion; ``obs`` sees every op.

        ``obs`` is an :class:`~repro.obs.layer.ObsLayer` the caller has
        already wired through :meth:`Deployment.attach_obs`.
        """
        config = deployment.config
        self.deployment = deployment
        self.obs = obs
        self.sim = sim = deployment.sim
        sequence = KeySequence(deployment.total_records)
        rngs = RngRegistry(config.seed)
        op_rng = rngs.stream("openloop-ops")
        chooser = make_chooser(config.workload.distribution,
                               deployment.total_records, sequence,
                               rngs.stream("openloop-keys"))
        # One draw per arrival, in arrival order.
        self._draw = partial(draw_operation, op_rng,
                             config.workload.op_table(), config.workload,
                             sequence, chooser, deployment.schema)
        self.sessions = [
            deployment.store.session(
                deployment.cluster.client_for_connection(i), i)
            for i in range(deployment.n_connections)
        ]
        if deployment.chaos is not None:
            deployment.chaos.start()
        sim.process(self._monitor(), name="queue-monitor")
        sim.run(until=sim.process(self._arrivals(), name="open-arrivals"))
        # Every arrival drains, so ``latency`` counts each measured one.
        latency = self.latency
        return OverloadPoint(
            store=config.store,
            workload=config.workload.name,
            n_nodes=config.n_nodes,
            protected=config.overload is not None,
            offered_rate=self.offered_rate,
            duration_s=self.duration_s,
            slo_s=self.slo_s,
            arrivals=latency.count,
            in_slo=self.in_slo,
            succeeded=latency.count - latency.errors,
            error_kinds=dict(latency.error_kinds),
            goodput=self.in_slo / self.duration_s,
            mean_latency_s=latency.mean,
            max_queue_depth=self.max_queue_depth,
            shed=deployment.store.total_shed(),
            shape=None if self.shape is None else self.shape.to_dict(),
        )


def run_overload_point(config: BenchmarkConfig, offered_rate: float, *,
                       duration_s: float = 3.0, warmup_s: float = 0.5,
                       slo_s: Optional[float] = None,
                       shape: Optional[ArrivalShape] = None) -> OverloadPoint:
    """Drive ``config``'s store open-loop at ``offered_rate`` ops/s.

    Arrivals are spaced exactly ``1 / offered_rate`` apart; each
    operation runs as its own process (with the configured overload
    protections, when ``config.overload`` is set) whether or not earlier
    operations have finished — offered load does not yield to
    congestion, unlike the closed-loop harness.  Goodput counts
    successes completing within ``slo_s`` (default
    :func:`default_slo_s`) among post-warmup arrivals.

    With ``shape`` (see :mod:`repro.overload.shapes`) the instantaneous
    rate is ``shape.rate_at(now, offered_rate)`` instead of constant —
    diurnal swings, flash crowds and load steps for provisioning
    studies.
    """
    if slo_s is None:
        slo_s = default_slo_s(config)
    driver = OpenLoopRun(offered_rate, duration_s, warmup_s, slo_s,
                         shape=shape)
    return driver.run(Deployment(config))


def _refine_capacity(config: BenchmarkConfig, start_rate: float, *,
                     duration_s: float = 0.3, warmup_s: float = 0.1,
                     max_doublings: int = 5) -> float:
    """Open-loop goodput capacity, by doubling probes until saturation.

    The closed-loop estimate undershoots for stores whose client library
    caps concurrency (Voldemort's 4-connection pool, HBase's buffering
    clients): their closed-loop throughput is concurrency-bound, not
    capacity-bound.  Probing open-loop — doubling the offered rate until
    goodput falls behind it — measures what the servers can actually
    serve within the SLO.
    """
    rate = max(1.0, start_rate)
    achieved = 0.0
    for _ in range(max_doublings + 1):
        point = run_overload_point(config, rate, duration_s=duration_s,
                                   warmup_s=warmup_s)
        achieved = point.goodput
        if achieved < 0.9 * rate:
            break
        rate *= 2
    return max(achieved, 1.0)


def find_saturation(config: BenchmarkConfig, *, cache=None,
                    use_sustained: bool = True,
                    refine: bool = True) -> SaturationEstimate:
    """Peak sustainable throughput for ``config``.

    Runs the closed-loop benchmark without overload protections; with
    ``use_sustained`` the run carries telemetry and the estimate is the
    sustained-throughput floor from ``repro.metrics`` (the rate the
    cluster holds across sub-windows, not just the average), otherwise
    the plain measured throughput.  With ``refine`` (and an overload
    policy on the config) the closed-loop estimate seeds open-loop
    doubling probes that measure true service capacity — see
    :func:`_refine_capacity`.  ``cache`` is an optional
    :class:`~repro.analysis.cache.ResultCache`.
    """
    probe = replace(config, overload=None, target_throughput=None)
    if use_sustained and probe.metrics_interval_s is None:
        probe = replace(probe, metrics_interval_s=0.05)
    if cache is not None:
        result = cache.get(probe)
    else:
        result = run_benchmark(probe.store, probe.workload, probe.n_nodes,
                               config=probe)
    floor = peak = None
    sustained = None if result.metrics is None else result.metrics.sustained
    if sustained is not None:
        floor, peak = sustained.floor, sustained.peak
    rate = floor if floor else result.throughput_ops
    open_loop = None
    if refine and config.overload is not None:
        open_loop = _refine_capacity(config, rate)
        rate = open_loop
    return SaturationEstimate(rate=rate, throughput=result.throughput_ops,
                              floor=floor, peak=peak, open_loop=open_loop)


def goodput_sweep(config: BenchmarkConfig, *,
                  multipliers=(0.5, 1.0, 1.5, 2.0),
                  duration_s: float = 3.0, warmup_s: float = 0.5,
                  cache=None, use_sustained: bool = True,
                  include_unprotected: bool = True,
                  shape: Optional[ArrivalShape] = None) -> OverloadSweep:
    """Sweep offered load across ``multipliers`` x the saturation rate.

    ``config.overload`` must be set: each multiplier runs once with the
    policy (protected) and — unless ``include_unprotected`` is false —
    once with ``overload=None`` (the congestion-collapse baseline).
    With ``shape``, every point's arrivals follow the shape with the
    multiplied rate as its base.
    """
    if config.overload is None:
        raise ValueError("goodput_sweep needs config.overload set; "
                         "the unprotected baseline is derived from it")
    saturation = find_saturation(config, cache=cache,
                                 use_sustained=use_sustained)
    sweep = OverloadSweep(config=config, saturation=saturation,
                          multipliers=tuple(multipliers))
    for multiplier in sweep.multipliers:
        rate = max(1.0, multiplier * saturation.rate)
        sweep.protected.append(run_overload_point(
            config, rate, duration_s=duration_s, warmup_s=warmup_s,
            shape=shape))
        if include_unprotected:
            bare = replace(config, overload=None)
            sweep.unprotected.append(run_overload_point(
                bare, rate, duration_s=duration_s, warmup_s=warmup_s,
                slo_s=default_slo_s(config),
                shape=shape))
    return sweep
