"""Priced hardware-profile registry for the capacity planner.

A :class:`HardwareProfile` is a node type the planner may provision: a
:class:`~repro.sim.cluster.ClusterSpec` (the very description the
simulator runs) plus a price.  The registry holds the paper's two test
beds (Cluster M and Cluster D node types, Section 3) plus modern
SSD/NVMe shapes, so the planner can answer both "what would the paper's
hardware need?" and "what does this cost on current machines?".

The spec types validate themselves, so a planner search never explores
hardware that cannot exist.  Costs are node-cost units per hour relative
to a paper Cluster M node (1.0): recommendations rank configurations
without pretending to know cloud list prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.sim.cluster import CLUSTER_D, CLUSTER_M, ClusterSpec, NodeSpec
from repro.sim.disk import DiskSpec

__all__ = ["HardwareProfile", "HARDWARE_PROFILES", "hardware_profile"]


@dataclass(frozen=True)
class HardwareProfile:
    """One provisionable node type: a priced :class:`ClusterSpec`."""

    name: str
    description: str
    #: Relative rental cost per node-hour (paper Cluster M node = 1.0).
    hourly_cost: float
    #: The hardware the benchmark runner provisions.  Named
    #: ``plan:<name>`` so the content hashes of configs on two profiles
    #: can never collide.
    spec: ClusterSpec

    def __post_init__(self):
        if not self.name:
            raise ValueError("profile needs a name")
        if not 0 < self.hourly_cost < math.inf:
            raise ValueError(
                f"{self.name}: hourly_cost must be positive and finite")
        if self.spec.name != f"plan:{self.name}":
            raise ValueError(
                f"{self.name}: spec must be named 'plan:{self.name}', got "
                f"{self.spec.name!r}")

    def cost(self, n_nodes: int) -> float:
        """Hourly cost of ``n_nodes`` nodes of this profile."""
        return n_nodes * self.hourly_cost


#: Cluster M node (Section 3): 2x quad-core Xeon, 16 GB RAM, RAID-0
#: spinning disks.  The cost anchor: 1.0 units/node-hour.
PAPER_M = HardwareProfile(
    name="paper-m",
    description="paper Cluster M node: 8 Xeon cores, 16 GiB RAM, RAID-0 HDD",
    hourly_cost=1.0,
    spec=replace(CLUSTER_M, name="plan:paper-m"))

#: Cluster D node: 2x dual-core Xeon, 4 GB RAM, one disk.  Older and
#: cheaper but disk-bound once the data outgrows its small cache.
PAPER_D = HardwareProfile(
    name="paper-d",
    description="paper Cluster D node: 4 slower Xeon cores, 4 GiB RAM, "
                "single HDD",
    hourly_cost=0.55,
    spec=replace(CLUSTER_D, name="plan:paper-d"))

#: A current general-purpose cloud node: many fast cores, SATA SSD.
MODERN_SSD = HardwareProfile(
    name="modern-ssd",
    description="modern node: 16 fast cores, 64 GiB RAM, SATA SSD",
    hourly_cost=2.6,
    spec=ClusterSpec(
        name="plan:modern-ssd",
        node=NodeSpec(
            cores=16,
            core_speed=2.0,
            ram_bytes=64 * 2**30,
            disk=DiskSpec(
                seq_bandwidth_bytes_per_s=500_000_000.0,
                seek_time_s=0.0001,
                rotational_latency_s=0.0,
                capacity_bytes=1_000 * 10**9,
                queue_depth=32,
            ),
        ),
        max_nodes=64,
    ),
)

#: A storage-optimised node: twice the cores, NVMe flash.
MODERN_NVME = HardwareProfile(
    name="modern-nvme",
    description="storage-optimised node: 32 fast cores, 256 GiB RAM, NVMe",
    hourly_cost=5.5,
    spec=ClusterSpec(
        name="plan:modern-nvme",
        node=NodeSpec(
            cores=32,
            core_speed=2.2,
            ram_bytes=256 * 2**30,
            disk=DiskSpec(
                seq_bandwidth_bytes_per_s=3_000_000_000.0,
                seek_time_s=0.00002,
                rotational_latency_s=0.0,
                capacity_bytes=2_000 * 10**9,
                queue_depth=64,
            ),
        ),
        max_nodes=64,
    ),
)

#: Profiles the planner searches by default, in presentation order.
HARDWARE_PROFILES: dict[str, HardwareProfile] = {
    profile.name: profile
    for profile in (PAPER_M, PAPER_D, MODERN_SSD, MODERN_NVME)
}


def hardware_profile(name: str) -> HardwareProfile:
    """The registered profile called ``name``."""
    try:
        return HARDWARE_PROFILES[name]
    except KeyError:
        known = ", ".join(HARDWARE_PROFILES)
        raise ValueError(f"unknown hardware profile {name!r}; "
                         f"known profiles: {known}")
