"""Per-store analytical throughput model (the planner's pruning sieve).

For every (store, hardware profile, node count) the model estimates the
sustainable operation rate as the tightest of three per-node bounds —
CPU, disk, network — scaled to the cluster:

* **CPU**: the mix-weighted per-operation server CPU from the store's
  own :meth:`~repro.stores.base.Store.default_profile` (the constants
  the simulation charges), inflated by the per-connection overhead the
  same way :meth:`~repro.stores.base.Store.server_cost` inflates it, on
  ``cores x core_speed`` reference-cores per node.
* **Disk**: expected disk-seconds per operation from the store's write
  architecture (LSM append, B-tree read-modify-write, log-structured
  leaf faulting, or purely in-memory) and the cache-miss ratio, served
  at the disk's queue depth.  The cache size comes from
  :func:`repro.ycsb.deployment.scaled_spec` itself — the model and the
  validating simulation must agree on whether a configuration is
  memory- or disk-bound, or the pruning step would discard candidates
  for the wrong reason.
* **Network**: mix-weighted wire bytes per operation against the node's
  NIC.

The model is deliberately **optimistic**: it prices no client-machine
CPU, no driver connection management, no coordinator double-charging
and no queueing latency.  Candidates it declares infeasible truly are
(they fail an even rosier world); candidates it declares feasible are
*promises to be checked*, which is why the planner simulates the
surviving frontier instead of trusting the arithmetic
(:mod:`repro.plan.validate`).  Latency SLOs are not modeled at all —
percentiles come only from simulation.

Capacity is monotone non-decreasing in the node count (property-tested
in ``tests/plan/test_model_properties.py``); the frontier search leans
on that to prune every node count above the minimal feasible one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plan.hardware import HardwareProfile
from repro.storage.record import APM_SCHEMA
from repro.stores.registry import store_class
from repro.ycsb.deployment import scaled_spec
from repro.ycsb.runner import PAPER_RECORDS_PER_NODE
from repro.ycsb.workload import Workload

__all__ = ["ModeledCapacity", "modeled_capacity", "write_architecture"]

#: Disk block a random point access touches (one cache/SSTable block).
BLOCK_BYTES = 4096

#: How each store's write path uses the disk.  In-memory stores are
#: detected from the store class itself (``rebalance_uses_disk`` is
#: False exactly for the stores whose working set lives in RAM).
_WRITE_ARCHITECTURE = {
    "cassandra": "lsm",       # memtable + sequential commit log
    "hbase": "lsm",           # memstore + WAL append
    "voldemort": "btree-log", # BDB JE: lazy leaf faulting + log append
    "mysql": "btree",         # InnoDB read-modify-write + redo append
}


def write_architecture(store_name: str) -> str:
    """The disk behaviour class of ``store_name``'s write path."""
    cls = store_class(store_name)
    if not cls.rebalance_uses_disk:
        return "memory"
    return _WRITE_ARCHITECTURE.get(store_name, "lsm")


@dataclass(frozen=True)
class ModeledCapacity:
    """Analytical throughput estimate for one candidate configuration."""

    store: str
    hardware: str
    n_nodes: int
    #: Per-node bounds, ops/s (``inf`` where the resource is not used).
    cpu_ops_per_node: float
    disk_ops_per_node: float
    network_ops_per_node: float
    #: Whole-cluster sustainable rate: ``n x min(bounds)``.
    ops_per_s: float
    #: Which bound is tightest ("cpu" | "disk" | "network" | "memory").
    binding: str
    #: Fraction of one node's data set that misses the cache.
    miss_ratio: float

    def row(self) -> dict:
        return {
            "store": self.store,
            "hardware": self.hardware,
            "n_nodes": self.n_nodes,
            "modeled_ops_per_s": round(self.ops_per_s, 1),
            "binding": self.binding,
            "miss_ratio": round(self.miss_ratio, 4),
        }


def _mix_cpu_seconds(store_name: str, workload: Workload) -> float:
    """Mix-weighted server CPU per operation on a reference core."""
    cls = store_class(store_name)
    profile = cls.default_profile()
    scan_cpu = (profile.scan_base_cpu
                + workload.scan_length * profile.scan_per_record_cpu)
    # Off-commit-path background work (e.g. BDB JE's log cleaner) still
    # consumes the node's cores, so it caps throughput.
    background = getattr(cls, "BACKGROUND_WRITE_CPU", 0.0)
    return (workload.read_proportion * profile.read_cpu
            + workload.write_fraction * (profile.write_cpu + background)
            + workload.scan_proportion * scan_cpu)


def _disk_seconds_per_op(store_name: str, workload: Workload,
                         miss_ratio: float, disk) -> float:
    """Expected disk busy-seconds one operation induces."""
    schema = APM_SCHEMA
    arch = write_architecture(store_name)
    if arch == "memory":
        return 0.0
    random_block = disk.access_time(BLOCK_BYTES, sequential=False)
    seconds = 0.0
    # Point reads fault one block when the cache misses.
    seconds += workload.read_proportion * miss_ratio * random_block
    # A scan seeks once, then streams its rows.
    if workload.scan_proportion > 0:
        scan_bytes = workload.scan_length * schema.raw_record_bytes
        seconds += (workload.scan_proportion * miss_ratio
                    * disk.access_time(scan_bytes, sequential=False))
    write_prop = workload.write_fraction
    if write_prop > 0:
        append = disk.access_time(schema.raw_record_bytes, sequential=True)
        if arch == "lsm":
            # Pure sequential append (commit log / WAL).
            seconds += write_prop * append
        elif arch == "btree-log":
            # Log-structured writes, but a fraction of them fault the
            # target leaf in from disk first (BDB JE's lazy leaves).
            cls = store_class(store_name)
            fault = getattr(cls, "WRITE_LEAF_FAULT_PERCENT", 0) / 100.0
            seconds += write_prop * (
                append + fault * miss_ratio * random_block)
        else:  # btree: read-modify-write plus the redo append
            seconds += write_prop * (
                miss_ratio * random_block + append)
    return seconds


def _wire_bytes_per_op(store_name: str, workload: Workload) -> float:
    """Mix-weighted bytes one operation moves through a server NIC."""
    schema = APM_SCHEMA
    profile = store_class(store_name).default_profile()
    framing = (profile.request_overhead_bytes
               + profile.response_overhead_bytes)
    read_bytes = schema.key_length + schema.raw_value_bytes
    write_bytes = schema.key_length + schema.raw_value_bytes
    scan_bytes = (schema.key_length
                  + workload.scan_length * schema.raw_value_bytes)
    return framing + (workload.read_proportion * read_bytes
                      + workload.write_fraction * write_bytes
                      + workload.scan_proportion * scan_bytes)


def modeled_capacity(store_name: str, hardware: HardwareProfile,
                     n_nodes: int, workload: Workload,
                     records_per_node: int,
                     paper_records_per_node: int = PAPER_RECORDS_PER_NODE,
                     ) -> ModeledCapacity:
    """Analytical sustainable ops/s of ``n_nodes`` x ``hardware``.

    ``records_per_node`` is the per-node data set the benchmark loads
    (the paper loads 10 M/node; validation runs scale this down), which
    together with the profile's scaled RAM fixes the cache-miss ratio.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    schema = APM_SCHEMA
    node = hardware.spec.node
    data_bytes = records_per_node * schema.raw_record_bytes
    cache_bytes = scaled_spec(hardware.spec, records_per_node,
                              paper_records_per_node).node.cache_bytes
    miss_ratio = max(0.0, 1.0 - cache_bytes / data_bytes)

    arch = write_architecture(store_name)
    if arch == "memory" and data_bytes > node.ram_bytes:
        # An in-memory store cannot hold more data than RAM (the paper's
        # Redis runs died of exactly this); no node count fixes a
        # per-node overcommit.
        return ModeledCapacity(
            store=store_name, hardware=hardware.name, n_nodes=n_nodes,
            cpu_ops_per_node=0.0, disk_ops_per_node=0.0,
            network_ops_per_node=0.0, ops_per_s=0.0, binding="memory",
            miss_ratio=miss_ratio)

    profile = store_class(store_name).default_profile()
    # The same inflation server_cost() applies: every open connection
    # adds a fraction of the base cost, and connections scale with the
    # fleet — this is what saturates Cassandra's speed-up (Section 8).
    sessions = hardware.spec.connections_per_node * n_nodes
    cpu_per_op = (_mix_cpu_seconds(store_name, workload)
                  * (1.0 + profile.per_connection_overhead * sessions))
    cpu_bound = node.cores * node.core_speed / cpu_per_op

    disk_seconds = _disk_seconds_per_op(store_name, workload, miss_ratio,
                                        node.disk)
    disk_bound = (float("inf") if disk_seconds <= 0
                  else node.disk.queue_depth / disk_seconds)

    wire = _wire_bytes_per_op(store_name, workload)
    network_bound = hardware.spec.network.bandwidth_bytes_per_s / wire

    per_node = min(cpu_bound, disk_bound, network_bound)
    binding = ("cpu" if per_node == cpu_bound
               else "disk" if per_node == disk_bound
               else "network")
    return ModeledCapacity(
        store=store_name,
        hardware=hardware.name,
        n_nodes=n_nodes,
        cpu_ops_per_node=cpu_bound,
        disk_ops_per_node=disk_bound,
        network_ops_per_node=network_bound,
        ops_per_s=n_nodes * per_node,
        binding=binding,
        miss_ratio=miss_ratio,
    )
