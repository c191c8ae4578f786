"""Rotational-disk and page-cache models.

The paper's two clusters differ exactly here: Cluster M nodes hold the whole
data set in RAM (reads hit the OS page cache), while Cluster D's data set
"was larger than the available memory" so reads pay seek + rotational
latency (Section 5.8).  Both effects are modelled:

* :class:`Disk` — a single-spindle (or RAID-0 pair) service station.
  Sequential transfers pay bandwidth only; random accesses pay seek +
  half-rotation first.  Write-back caching on the controller is modelled
  by an optional ``writeback`` flag used for commit-log style appends.
* :class:`PageCache` — an LRU cache of fixed-size blocks used by the
  storage engines to decide whether a logical read touches the disk at all.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

from repro.sim.kernel import Simulator
from repro.sim.resources import Resource

__all__ = ["DiskSpec", "Disk", "PageCache"]


@dataclass(frozen=True)
class DiskSpec:
    """Physical parameters of a node-local disk (or RAID array)."""

    seq_bandwidth_bytes_per_s: float = 80_000_000.0
    seek_time_s: float = 0.004
    rotational_latency_s: float = 0.002  # half rotation at 15k rpm ~ 2 ms
    capacity_bytes: int = 74 * 10**9
    queue_depth: int = 4  # NCQ: overlapping requests the controller accepts

    def __post_init__(self):
        bandwidth = self.seq_bandwidth_bytes_per_s
        if bandwidth == 0:
            raise ValueError(
                "seq_bandwidth_bytes_per_s is 0: a disk with zero "
                "throughput could never read back what is written to it")
        if not 0 < bandwidth < math.inf:
            raise ValueError("seq_bandwidth_bytes_per_s must be positive "
                             f"and finite, got {bandwidth}")
        for name in ("seek_time_s", "rotational_latency_s",
                     "capacity_bytes"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be >= 0 and finite, got {value}")
        if not 1 <= self.queue_depth < math.inf:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}")

    def access_time(self, nbytes: int, sequential: bool) -> float:
        """Service time for one request of ``nbytes``."""
        transfer = nbytes / self.seq_bandwidth_bytes_per_s
        if sequential:
            return transfer
        return self.seek_time_s + self.rotational_latency_s + transfer


class Disk:
    """A disk with a FIFO request queue."""

    def __init__(self, sim: Simulator, spec: DiskSpec, name: str = "disk"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.queue = Resource(sim, spec.queue_depth, f"diskq:{name}",
                              component="disk")
        self.bytes_read = 0
        self.bytes_written = 0
        self.reads = 0
        self.writes = 0
        #: Service-time multiplier for a degraded spindle (fault injection:
        #: a failing disk retries sectors / a RAID array rebuilds).
        self.degrade_factor = 1.0

    def degrade(self, factor: float) -> None:
        """Slow every access by ``factor`` (>= 1.0; 1.0 restores health)."""
        if factor < 1.0:
            raise ValueError(f"degrade factor must be >= 1.0, got {factor}")
        self.degrade_factor = factor

    def restore(self) -> None:
        """Return the disk to full speed."""
        self.degrade_factor = 1.0

    def read(self, nbytes: int, sequential: bool = False):
        """Process: read ``nbytes`` (random unless ``sequential``)."""
        self.reads += 1
        self.bytes_read += nbytes
        duration = (self.spec.access_time(nbytes, sequential)
                    * self.degrade_factor)
        sim = self.sim
        if sim.tracer is not None and sim.context is not None:
            span = sim.tracer.start_span(
                "disk.read", "disk",
                {"disk": self.name, "bytes": nbytes,
                 "sequential": sequential})
            try:
                yield sim.process(self.queue.use(duration))
            finally:
                sim.tracer.end_span(span)
        else:
            yield sim.process(self.queue.use(duration))

    def write(self, nbytes: int, sequential: bool = True, sync: bool = True):
        """Process: write ``nbytes``.

        ``sync=False`` models a write-back / OS-buffered write that is
        acknowledged immediately (a tiny CPU-side cost) and drained later;
        the commit-log group-commit path in the LSM engine uses it.

        ``sync=True`` is an fsync-style durable write: besides the
        transfer it waits for the platter (half a rotation), which is
        what makes per-write syncing catastrophic and group commit
        essential (the group-commit ablation benchmark measures this).
        """
        self.writes += 1
        self.bytes_written += nbytes
        sim = self.sim
        traced = sim.tracer is not None and sim.context is not None
        if not sync:
            if traced:
                span = sim.tracer.start_span(
                    "disk.write", "disk",
                    {"disk": self.name, "bytes": nbytes, "sync": False})
                try:
                    yield sim.timeout(2e-6)
                finally:
                    sim.tracer.end_span(span)
            else:
                # Write-back ack: kernel-owned timer, freelist-recycled.
                timeout = sim._timeout_pooled(2e-6)
                yield timeout
                sim._recycle_timeout(timeout)
            return
        duration = ((self.spec.access_time(nbytes, sequential)
                     + self.spec.rotational_latency_s)
                    * self.degrade_factor)
        if traced:
            span = sim.tracer.start_span(
                "disk.write", "disk",
                {"disk": self.name, "bytes": nbytes, "sync": True})
            try:
                yield sim.process(self.queue.use(duration))
            finally:
                sim.tracer.end_span(span)
        else:
            yield sim.process(self.queue.use(duration))


class PageCache:
    """An LRU cache of fixed-size blocks, keyed by opaque block ids.

    The storage engines map logical record locations to block ids; a miss
    means the engine must issue a real :meth:`Disk.read`.  With
    ``capacity_bytes`` at least as large as the data set this degenerates to
    all-hits after warm-up — the Cluster M regime.
    """

    def __init__(self, capacity_bytes: int, block_size: int = 4096):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        self.capacity_blocks = max(0, capacity_bytes // block_size)
        self._blocks: OrderedDict[object, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def hit_ratio(self) -> float:
        """Observed hit ratio since creation."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def access(self, block_id: object) -> bool:
        """Touch a block; returns ``True`` on a cache hit."""
        if self.capacity_blocks == 0:
            self.misses += 1
            return False
        if block_id in self._blocks:
            self._blocks.move_to_end(block_id)
            self.hits += 1
            return True
        self.misses += 1
        self._blocks[block_id] = None
        while len(self._blocks) > self.capacity_blocks:
            self._blocks.popitem(last=False)
        return False

    def insert(self, block_id: object) -> None:
        """Populate a block without counting a hit or miss (write path)."""
        if self.capacity_blocks == 0:
            return
        self._blocks[block_id] = None
        self._blocks.move_to_end(block_id)
        while len(self._blocks) > self.capacity_blocks:
            self._blocks.popitem(last=False)

    def evict_all(self) -> None:
        """Drop every cached block (e.g. after a compaction rewrite)."""
        self._blocks.clear()
