"""One provisioned deployment: cluster, store, data, and client policy.

The paper's method (Section 3) begins every data point the same way:
provision a fresh cluster, install the store, load the data set, and
give the clients their connection and retry settings.  A
:class:`Deployment` is exactly that set-up, shared by the closed-loop
driver (:func:`repro.ycsb.runner.run_benchmark`) and the open-loop
driver (:class:`repro.overload.openloop.OpenLoopRun`).  Both issue
every operation through :meth:`Deployment.attempt`, the one place the
client policy is applied.

A deployment starts no simulation process.  Each driver decides when
the chaos controller, the metrics sampler and its own client processes
start: at a shared timestamp the earlier-created process runs first, so
the start order is part of a driver's observable behaviour.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.faults.chaos import ChaosController
from repro.overload.budget import CircuitBreaker, RetryBudget
from repro.sim.cluster import Cluster, ClusterSpec
from repro.storage.record import APM_SCHEMA
from repro.stores.registry import store_class
from repro.ycsb.client import attempt_op
from repro.ycsb.generator import generate_records

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ycsb.runner import BenchmarkConfig

__all__ = ["Deployment", "scaled_spec"]


def scaled_spec(spec: ClusterSpec, records_per_node: int,
                paper_records_per_node: int) -> ClusterSpec:
    """Shrink node RAM in proportion to the scaled-down data set.

    The paper's regimes (Cluster M: data fits in memory; Cluster D: it
    does not) depend on the ratio of data to RAM.  Scaling both together
    preserves the regime while keeping the simulation tractable.
    """
    scale = records_per_node / paper_records_per_node
    if scale >= 1.0:
        return spec
    node = replace(spec.node,
                   ram_bytes=max(1 << 20, int(spec.node.ram_bytes * scale)))
    return replace(spec, node=node)


class Deployment:
    """A loaded store on a fresh scaled cluster, ready to be driven.

    Building one provisions the cluster, installs the store, arms its
    overload policy, loads and warms the data set, and resolves the
    client-side retry policy, per-operation deadline, shared
    :class:`RetryBudget` and :class:`CircuitBreaker`.  With a non-empty
    fault schedule it also creates the :class:`ChaosController`, with
    the store and the breaker subscribed, but does not start it.
    """

    def __init__(self, config: "BenchmarkConfig"):
        cls = store_class(config.store)
        if config.workload.has_scans and not cls.supports_scans:
            raise ValueError(
                f"{config.store} does not support scans (workload "
                f"{config.workload.name}); the paper omits it from scan "
                f"workloads")
        self.config = config
        self.schema = APM_SCHEMA
        self.spec = scaled_spec(config.cluster_spec, config.records_per_node,
                                config.paper_records_per_node)
        n_clients = cls.clients_for(config.n_nodes,
                                    self.spec.servers_per_client)
        self.cluster = Cluster(self.spec, config.n_nodes,
                               n_clients=n_clients)
        self.sim = self.cluster.sim
        self.store = cls(self.cluster, schema=self.schema,
                         **config.store_kwargs)
        policy = config.overload
        if policy is not None:
            self.store.configure_overload(policy)
        self.n_connections = self.store.connections(
            self.spec.connections_per_node)
        self.retry = (config.retry if config.retry is not None
                      else self.store.retry_policy())
        #: Per-operation deadline in seconds (``None`` = no deadline).
        self.deadline_s = None if policy is None else policy.deadline_s
        self.budget = self.breaker = None
        if policy is not None and policy.retry_budget_per_s is not None:
            self.budget = RetryBudget(policy.retry_budget_per_s,
                                      policy.retry_budget_burst)
        if policy is not None and policy.circuit_breaker:
            self.breaker = CircuitBreaker()
        self.chaos = None
        if config.fault_schedule is not None and len(config.fault_schedule):
            self.chaos = ChaosController(self.cluster, config.fault_schedule)
            self.chaos.subscribe(self.store)
            if self.breaker is not None:
                self.chaos.subscribe(self.breaker)
        # Load last: a schedule naming unknown nodes fails above, before
        # the expensive part.
        self.total_records = config.records_per_node * config.n_nodes
        self.store.load(generate_records(self.total_records, self.schema))
        self.store.warm_caches()

    def attempt(self, session, op, key: str, fields, scan_length: int,
                started: float):
        """Process body: one operation under this deployment's client policy.

        The :func:`~repro.ycsb.client.attempt_op` call with this
        deployment's retry policy, retry budget and circuit breaker, and a
        deadline ``deadline_s`` after ``started``.
        """
        deadline_s = self.deadline_s
        return attempt_op(
            session, op, key, fields, scan_length, self.retry,
            deadline=None if deadline_s is None else started + deadline_s,
            budget=self.budget, breaker=self.breaker)

    def attach_metrics(self, interval_s: float):
        """Instrument cluster and store; return ``(registry, sampler)``.

        The sampler is not started: the driver starts it at its place in
        the process start order.
        """
        from repro.metrics import (MetricsRegistry, MetricsSampler,
                                   instrument_cluster)

        registry = MetricsRegistry(self.sim)
        instrument_cluster(registry, self.cluster)
        self.store.attach_metrics(registry)
        return registry, MetricsSampler(registry, interval_s)

    def attach_obs(self, obs) -> None:
        """Feed the chaos controller's actions into ``obs``'s recorder."""
        if self.chaos is not None:
            obs.attach_chaos(self.chaos)
