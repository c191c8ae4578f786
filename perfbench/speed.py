"""Host-speed sampling: turn host seconds into reference seconds.

The benchmark runs on shared hosts whose speed for the same Python code
swings by up to ~1.8x within seconds, as neighbours come and go on the
same physical cores.  CPU time swings with it, so neither wall nor CPU
seconds compare from one run to the next.

:class:`SpeedProbe` samples the host's speed while a workload runs: a
``SIGALRM`` interval timer interrupts the workload every
:data:`INTERVAL_S` of wall time and the handler times a fixed
pure-Python reference loop (:func:`reference_loop`, about a third of a
millisecond).  The loop's reference duration divided by its measured one
is the host's speed at that moment relative to the reference host.
:meth:`SpeedProbe.scaled` integrates those speeds over an interval of
host time, minus the time spent in the handler itself, which gives the
interval's length in *reference seconds*: how long the same work takes
on the reference host.  A real speed-up of the program shortens the work
between samples and so shows in full; a slower host makes both the work
and the loop slower and cancels out.

The handler only reads the clock and runs the loop on its own objects,
so a sampled execution computes exactly what a bare one does; the
benchmark's output digests check that on every run.
"""

from __future__ import annotations

import heapq
import signal
import time
from bisect import bisect_right

__all__ = ["INTERVAL_S", "REFERENCE_S", "SpeedProbe", "reference_loop"]

#: Wall seconds between two speed samples.
INTERVAL_S = 0.02
#: Seconds :func:`reference_loop` takes on the reference host (a
#: 2-vCPU Xeon VM at its quiet speed).  Reference seconds are host
#: seconds on that host; the constant only sets the scale.
REFERENCE_S = 0.0003


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference_loop() -> int:
    """A fixed interpreter-bound job: objects, a heap and a dict.

    It mixes what the simulator does most (small object allocation,
    attribute access, heap pushes and pops, dict updates) so that a
    contended host slows it about as much as it slows the workload.
    """
    heap: list = []
    totals: dict = {}
    for i in range(400):
        item = _Item(i * 7 % 13, i)
        heapq.heappush(heap, (item.key, i))
        totals[item.key] = totals.get(item.key, 0) + item.value
    while heap:
        heapq.heappop(heap)
    return len(totals)


class SpeedProbe:
    """Samples host speed during a ``with`` block.

    After the block, :meth:`scaled` converts any interval of
    ``time.perf_counter()`` readings taken inside it into reference
    seconds.  Samples are uniform in wall time, so the integral weights
    the host's speed by how long it lasted.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        #: (handler entered, handler left), host time.
        self._handled: list[tuple[float, float]] = []
        #: Workload segments between handler calls: host start and end,
        #: speed, and reference seconds before the segment.
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._speeds: list[float] = []
        self._cumulative: list[float] = []
        self._began = 0.0
        self._ended = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        reference_loop()
        self._handled.append((entered, time.perf_counter()))

    def __enter__(self):
        self._handled.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._began = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._ended = time.perf_counter()
        self._build()
        return False

    @property
    def samples(self) -> int:
        return len(self._handled)

    @property
    def handler_s(self) -> float:
        """Host seconds spent in the sampling handler."""
        return sum(left - entered for entered, left in self._handled)

    def _build(self) -> None:
        """Segments of workload time between handler calls, with speeds.

        Segment ``k`` runs from the end of handler ``k - 1`` (or the
        block's start) to the start of handler ``k`` (or the block's
        end); its speed is the mean of the samples on either side.
        """
        handled = self._handled
        speeds = [REFERENCE_S / (left - entered) for entered, left in handled]
        if not speeds:
            speeds = [1.0]
        starts = [self._began] + [left for __, left in handled]
        ends = [entered for entered, __ in handled] + [self._ended]
        self._starts = starts
        self._ends = ends
        self._speeds = [
            (speeds[max(k - 1, 0)] + speeds[min(k, len(speeds) - 1)]) / 2
            for k in range(len(starts))]
        total = 0.0
        self._cumulative = []
        for start, end, speed in zip(starts, ends, self._speeds):
            self._cumulative.append(total)
            total += max(end - start, 0.0) * speed

    def _at(self, moment: float) -> float:
        """Reference seconds of workload time from the block's start."""
        k = max(bisect_right(self._starts, moment) - 1, 0)
        within = min(moment, self._ends[k]) - self._starts[k]
        return self._cumulative[k] + max(within, 0.0) * self._speeds[k]

    def scaled(self, started: float, ended: float) -> float:
        """Reference seconds of workload time in ``[started, ended]``."""
        return self._at(ended) - self._at(started)
