"""Node and cluster hardware profiles.

Reproduces the two test beds of Section 3:

* **Cluster M** (memory-bound): 16 Linux nodes, two quad-core Xeons
  (8 cores), 16 GB RAM, two 74 GB disks in RAID 0, gigabit ethernet.
* **Cluster D** (disk-bound): 24 Linux nodes, two dual-core Xeons
  (4 cores), 4 GB RAM, one 74 GB disk, gigabit ethernet.

A :class:`Cluster` instantiates server nodes plus dedicated workload
generator (client) nodes on a shared :class:`~repro.sim.network.Network`,
matching the paper's separation of YCSB client machines from storage nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.sim.disk import Disk, DiskSpec, PageCache
from repro.sim.kernel import Simulator
from repro.sim.network import GIGABIT, Network, NetworkSpec
from repro.sim.resources import Resource

__all__ = [
    "NodeSpec",
    "ClusterSpec",
    "Node",
    "Cluster",
    "CLUSTER_M",
    "CLUSTER_D",
    "CLUSTERS",
]


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of a single cluster node."""

    cores: int = 8
    core_speed: float = 1.0  # relative to a 2.0 GHz Xeon core
    ram_bytes: int = 16 * 2**30
    disk: DiskSpec = field(default_factory=DiskSpec)
    #: Fraction of RAM the OS page cache / store caches may use.
    cache_fraction: float = 0.7

    def __post_init__(self):
        if not 1 <= self.cores < math.inf:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if not 0 < self.core_speed < math.inf:
            raise ValueError(
                f"core_speed must be positive and finite, got "
                f"{self.core_speed}")
        if not 1 << 20 <= self.ram_bytes < math.inf:
            raise ValueError(
                f"ram_bytes must be >= 1 MiB, got {self.ram_bytes}")
        if not 0 < self.cache_fraction <= 1:
            raise ValueError(
                f"cache_fraction must be in (0, 1], got "
                f"{self.cache_fraction}")

    @property
    def cache_bytes(self) -> int:
        """RAM available to the page cache on this node."""
        return int(self.ram_bytes * self.cache_fraction)


@dataclass(frozen=True)
class ClusterSpec:
    """A named cluster configuration."""

    name: str
    node: NodeSpec
    max_nodes: int
    network: NetworkSpec = GIGABIT
    #: Client connections opened per server node (Section 3: 128 on M, 8 on D).
    connections_per_node: int = 128
    #: Server nodes served by one client (workload generator) machine.
    servers_per_client: int = 3

    def __post_init__(self):
        for name in ("max_nodes", "connections_per_node",
                     "servers_per_client"):
            value = getattr(self, name)
            if not 1 <= value < math.inf:
                raise ValueError(f"{name} must be >= 1, got {value}")


#: Cluster M: memory-bound, 16 nodes, 8 cores / 16 GB RAM / RAID-0 disks.
CLUSTER_M = ClusterSpec(
    name="M",
    node=NodeSpec(
        cores=8,
        core_speed=1.0,
        ram_bytes=16 * 2**30,
        disk=DiskSpec(
            seq_bandwidth_bytes_per_s=140_000_000.0,  # two spindles, RAID 0
            seek_time_s=0.004,
            rotational_latency_s=0.002,
            capacity_bytes=148 * 10**9,
            queue_depth=8,
        ),
    ),
    max_nodes=16,
    connections_per_node=128,
)

#: Cluster D: disk-bound, 24 nodes, 4 slower cores / 4 GB RAM / one disk.
#: With only 4 GB of RAM the JVM heaps of the stores crowd out the OS
#: page cache, so a much smaller fraction of memory caches data than on
#: Cluster M.
CLUSTER_D = ClusterSpec(
    name="D",
    node=NodeSpec(
        cores=4,
        core_speed=0.8,
        ram_bytes=4 * 2**30,
        cache_fraction=0.25,
        disk=DiskSpec(
            seq_bandwidth_bytes_per_s=70_000_000.0,
            seek_time_s=0.0045,
            rotational_latency_s=0.003,
            capacity_bytes=74 * 10**9,
            queue_depth=2,
        ),
    ),
    max_nodes=24,
    connections_per_node=8,  # 2 per core (Section 3)
)

#: The paper's two test beds by the names the CLI accepts.
CLUSTERS = {"M": CLUSTER_M, "D": CLUSTER_D}


class Node:
    """A simulated machine: CPU cores, a disk, a page cache, and a NIC."""

    def __init__(self, sim: Simulator, spec: NodeSpec, name: str,
                 network: Network, role: str = "server"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.network = network
        self.role = role
        # Client-machine CPU burn is attributed separately from server CPU
        # so the breakdown can show driver overhead vs store work.
        self.cpus = Resource(
            sim, spec.cores, f"cpu:{name}",
            component="client" if role == "client" else "cpu")
        self.disk = Disk(sim, spec.disk, name)
        self.page_cache = PageCache(spec.cache_bytes)
        #: Liveness flag driven by the fault-injection layer.
        self.up = True
        #: Gray-failure slowdown: < 1.0 when the node is a *zombie* —
        #: alive (``up`` stays True, liveness detection sees nothing)
        #: but pathologically slow.  Scales every CPU grant.
        self.speed_factor = 1.0
        #: Set when the control plane scales the node in: the node stays
        #: in :attr:`Cluster.servers` (stable indices for in-flight ops)
        #: but no longer accrues node-hours or receives new work.
        self.retired = False
        #: Monotone restart counter: bumps on every recovery, so stores
        #: can tell a freshly restarted node (cold caches) from the one
        #: that crashed.
        self.epoch = 0
        network.attach(name)

    def fail(self) -> None:
        """Crash the node: drain its resources and drop off the network.

        Queued CPU/disk grants fail (their waiting processes receive
        :class:`~repro.sim.faults.ResourceDrainedError`); in-flight and
        future messages to or from the node fail at the network layer;
        new resource claims are refused until :meth:`recover`.
        """
        if not self.up:
            return
        self.up = False
        self.cpus.shut_down()
        self.disk.queue.shut_down()
        self.network.set_host_down(self.name)

    def recover(self) -> None:
        """Restart a crashed node with cold caches.

        Durable state (whatever the store persisted) survives; the page
        cache does not — the restarted node re-reads from disk, exactly
        the post-restart cold-cache penalty a real cluster pays.
        """
        if self.up:
            return
        self.up = True
        self.epoch += 1
        self.cpus.restore()
        self.disk.queue.restore()
        self.network.set_host_up(self.name)
        self.page_cache.evict_all()

    def zombie(self, slowdown: float) -> None:
        """Turn the node into a zombie: alive but ``slowdown``x slower.

        CPU and disk service degrade; :attr:`up` stays True, so
        crash-liveness detection (driver blacklists, the control
        plane's replacement logic) cannot see it — the classic gray
        failure.  :meth:`unzombie` restores full speed.
        """
        if slowdown <= 1.0:
            raise ValueError(f"zombie slowdown must be > 1.0, got {slowdown}")
        if self.speed_factor < 1.0:
            self.disk.restore()  # re-degrading replaces the old factor
        self.speed_factor = 1.0 / slowdown
        self.disk.degrade(slowdown)

    def unzombie(self) -> None:
        """Restore a zombie node to full speed."""
        if self.speed_factor >= 1.0:
            return
        self.speed_factor = 1.0
        self.disk.restore()

    def cpu(self, cost_s: float):
        """Process: execute ``cost_s`` seconds of single-core work here.

        The cost is expressed for a reference core and scaled by this
        node's :attr:`NodeSpec.core_speed` (and the zombie
        :attr:`speed_factor`, normally 1.0).
        """
        yield self.sim.process(self.cpus.use(
            cost_s / (self.spec.core_speed * self.speed_factor)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.name!r}, cores={self.spec.cores})"


class Cluster:
    """A provisioned simulation: server nodes + client nodes + network."""

    def __init__(self, spec: ClusterSpec, n_servers: int,
                 sim: Simulator | None = None,
                 n_clients: int | None = None):
        if n_servers < 1:
            raise ValueError("need at least one server node")
        if n_servers > spec.max_nodes:
            raise ValueError(
                f"cluster {spec.name} has only {spec.max_nodes} nodes, "
                f"requested {n_servers}"
            )
        self.spec = spec
        self.sim = sim or Simulator()
        self.network = Network(self.sim, spec.network)
        self.servers = [
            Node(self.sim, spec.node, f"server-{i}", self.network)
            for i in range(n_servers)
        ]
        if n_clients is None:
            n_clients = -(-n_servers // spec.servers_per_client)  # ceil div
        self.clients = [
            Node(self.sim, spec.node, f"client-{i}", self.network,
                 role="client")
            for i in range(max(1, n_clients))
        ]
        #: Monotone server-name sequence: names are never reused, even
        #: after a retire, so NIC attachments stay unambiguous.
        self._server_seq = n_servers

    @property
    def n_servers(self) -> int:
        """Number of storage server nodes ever provisioned (incl. retired)."""
        return len(self.servers)

    @property
    def active_servers(self) -> list[Node]:
        """Server nodes currently provisioned (not scaled in)."""
        return [node for node in self.servers if not node.retired]

    @property
    def n_active(self) -> int:
        """Number of provisioned (non-retired) server nodes."""
        return sum(1 for node in self.servers if not node.retired)

    @property
    def next_server_name(self) -> str:
        """The name :meth:`add_server` will assign next (decision logs)."""
        return f"server-{self._server_seq}"

    def add_server(self) -> Node:
        """Provision one more server node (scale-out).

        The node is appended to :attr:`servers` — existing indices never
        shift, so in-flight operations holding a server index stay
        valid.  Raises when the cluster is already at ``spec.max_nodes``
        active servers (the paper's fixed fleet is the rental ceiling).
        """
        if self.n_active >= self.spec.max_nodes:
            raise ValueError(
                f"cluster {self.spec.name} is at its {self.spec.max_nodes}"
                f"-node ceiling"
            )
        node = Node(self.sim, self.spec.node,
                    f"server-{self._server_seq}", self.network)
        self._server_seq += 1
        self.servers.append(node)
        return node

    def retire_server(self, node: Node) -> None:
        """Decommission ``node`` (scale-in) after its data has drained.

        The node keeps its slot in :attr:`servers` but is marked
        :attr:`Node.retired` and powered off like a crash: queued grants
        drain, the NIC drops, new claims are refused.  Unlike a crash it
        is never a candidate for replacement.
        """
        if node.retired:
            return
        node.retired = True
        node.fail()

    def node(self, name: str) -> Node:
        """Look up a server or client node by name (fault targeting)."""
        for candidate in self.servers + self.clients:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no node named {name!r} in cluster")

    def client_for_connection(self, connection_index: int) -> Node:
        """Spread client connections round-robin over client machines."""
        return self.clients[connection_index % len(self.clients)]

    def with_cache_fraction(self, fraction: float) -> "Cluster":
        """A fresh cluster identical to this one but with resized caches.

        Used by the memory- vs disk-bound ablation.
        """
        node = replace(self.spec.node, cache_fraction=fraction)
        spec = replace(self.spec, node=node)
        return Cluster(spec, self.n_servers, n_clients=len(self.clients))
