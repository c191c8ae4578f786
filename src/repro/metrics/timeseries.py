"""Windowed time-series: the shared series representation of the repo.

Every windowed measurement in the system — the fault subsystem's
availability timelines, the metrics sampler's gauge snapshots, the
sustained-throughput verifier's sub-windows — is a mapping from
fixed-width slices of *simulated* time to named numeric channels.
:class:`WindowedSeries` is that one representation; it supports both
*accumulated* channels (counts added into the window they fall in) and
*sampled* channels (a point value stamped at the window's close), and it
renders to one canonical CSV layout so chaos runs and metrics runs
export identically-shaped artefacts.

Determinism contract: the rendering never consults wall-clock time or
unordered iteration — two runs with the same seed produce byte-identical
CSV.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterable, Mapping, Optional

__all__ = ["SeriesWindow", "WindowedSeries"]


class SeriesWindow:
    """One ``[start, end)`` slice of simulated time and its channel values."""

    __slots__ = ("start", "end", "values")

    def __init__(self, start: float, end: float,
                 values: Mapping[str, float]):
        self.start = start
        self.end = end
        self.values = dict(values)

    @property
    def duration(self) -> float:
        """Window width in simulated seconds."""
        return self.end - self.start

    def get(self, channel: str, default: float = 0.0) -> float:
        """The window's value for ``channel`` (``default`` when absent)."""
        return self.values.get(channel, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SeriesWindow([{self.start:g}, {self.end:g}), "
                f"{len(self.values)} channels)")


class WindowedSeries:
    """Fixed-width windows of simulated time holding named channels.

    Channels are written two ways:

    * :meth:`add` *accumulates* — operation counts, byte deltas, busy-time
      deltas; repeated adds into the same window sum.
    * :meth:`put` *samples* — an instantaneous gauge reading; repeated
      puts into the same window keep the latest value.
    """

    def __init__(self, window_s: float):
        if not 0 < window_s < math.inf:
            raise ValueError(
                f"window_s must be positive and finite, got {window_s}")
        self.window_s = window_s
        #: window index -> {channel: value}
        self._cells: dict[int, dict[str, float]] = {}
        #: every channel ever written, in first-write order.
        self._channels: dict[str, None] = {}

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def channels(self) -> list[str]:
        """All channel names, sorted (the canonical export order)."""
        return sorted(self._channels)

    def index_of(self, now: float) -> int:
        """The window index containing simulated time ``now``."""
        return int(now / self.window_s)

    # -- writing ---------------------------------------------------------------

    def add(self, now: float, channel: str, amount: float = 1.0) -> None:
        """Accumulate ``amount`` into ``channel`` at time ``now``."""
        self.add_at(self.index_of(now), channel, amount)

    def add_at(self, index: int, channel: str, amount: float = 1.0) -> None:
        """Accumulate ``amount`` into ``channel`` of window ``index``."""
        cell = self._cells.setdefault(index, {})
        cell[channel] = cell.get(channel, 0.0) + amount
        self._channels.setdefault(channel, None)

    def put(self, now: float, channel: str, value: float) -> None:
        """Sample ``value`` for ``channel`` at time ``now`` (last wins)."""
        self.put_at(self.index_of(now), channel, value)

    def put_at(self, index: int, channel: str, value: float) -> None:
        """Sample ``value`` for ``channel`` of window ``index``."""
        self._cells.setdefault(index, {})[channel] = value
        self._channels.setdefault(channel, None)

    # -- reading ---------------------------------------------------------------

    def last_index(self) -> Optional[int]:
        """Highest populated window index (``None`` when empty)."""
        return max(self._cells) if self._cells else None

    def window_at(self, index: int) -> SeriesWindow:
        """The window object for ``index`` (empty channels when idle)."""
        return SeriesWindow(index * self.window_s,
                            (index + 1) * self.window_s,
                            self._cells.get(index, {}))

    def windows(self) -> list[SeriesWindow]:
        """The contiguous series from t=0 through the last active window.

        Idle windows between active ones are included (with empty
        channels), so plots and tables show gaps rather than eliding
        them.
        """
        last = self.last_index()
        if last is None:
            return []
        return [self.window_at(index) for index in range(last + 1)]

    def sum_between(self, channel: str, t0: float, t1: float) -> float:
        """Overlap-weighted sum of an accumulated channel over ``[t0, t1]``.

        Windows partially covered by the interval contribute
        proportionally to the overlap, assuming uniform activity inside
        the window — the standard windowed-rate approximation.
        """
        if t1 <= t0:
            return 0.0
        total = 0.0
        for index in sorted(self._cells):
            value = self._cells[index].get(channel)
            if not value:
                continue
            start = index * self.window_s
            end = start + self.window_s
            overlap = min(end, t1) - max(start, t0)
            if overlap > 0:
                total += value * (overlap / self.window_s)
        return total

    def rate_between(self, channel: str, t0: float, t1: float) -> float:
        """Mean per-second rate of an accumulated channel over ``[t0, t1]``."""
        span = t1 - t0
        if span <= 0:
            return 0.0
        return self.sum_between(channel, t0, t1) / span

    def mean_between(self, channel: str, t0: float, t1: float) -> float:
        """Overlap-weighted mean of a sampled channel over ``[t0, t1]``.

        Only windows that carry a value for ``channel`` participate;
        each is weighted by its overlap with the interval.
        """
        weighted = 0.0
        weight = 0.0
        for index in sorted(self._cells):
            cell = self._cells[index]
            if channel not in cell:
                continue
            start = index * self.window_s
            end = start + self.window_s
            overlap = min(end, t1) - max(start, t0)
            if overlap > 0:
                weighted += cell[channel] * overlap
                weight += overlap
        return weighted / weight if weight > 0 else 0.0

    # -- deterministic rendering ----------------------------------------------

    def to_csv(self, channels: Optional[Iterable[str]] = None) -> str:
        """The canonical CSV: ``start,end,channel,value`` rows.

        Rows are ordered by (window, channel name); floats render via
        ``repr`` so output is byte-stable across runs and platforms.
        """
        selected = sorted(channels) if channels is not None else self.channels
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["start", "end", "channel", "value"])
        for window in self.windows():
            for channel in selected:
                if channel in window.values:
                    writer.writerow([
                        f"{window.start:.6f}", f"{window.end:.6f}",
                        channel, repr(window.values[channel]),
                    ])
        return buffer.getvalue()

    def to_payload(self) -> dict:
        """A JSON-ready dict mirroring :meth:`to_csv`."""
        return {
            "window_s": self.window_s,
            "channels": self.channels,
            "windows": [
                {
                    "start": round(w.start, 9),
                    "end": round(w.end, 9),
                    "values": {c: w.values[c] for c in sorted(w.values)},
                }
                for w in self.windows()
            ],
        }
