"""O(1)-per-sample streaming accumulator for binned series.

:class:`StreamingBinCounter` — per-bin event counts over a fixed
window; the incremental form of
:func:`repro.analysis.timeseries.bin_count`, and convertible to the
same :class:`~repro.analysis.timeseries.Series`.
"""

from __future__ import annotations

import math
from typing import Iterable, List

from repro.core.types import Seconds


class StreamingBinCounter:
    """Per-bin event counts over ``[start, end)``, ingested in O(1).

    The incremental form of :func:`repro.analysis.timeseries.bin_count`:
    feeding every time through :meth:`add` and calling
    :meth:`to_series` yields a bin-for-bin identical
    :class:`~repro.analysis.timeseries.Series` without first
    materialising the times in a list.  Out-of-window times are counted
    in :attr:`dropped` rather than silently ignored.
    """

    __slots__ = ("start", "end", "bin_width", "_counts", "dropped", "total")

    def __init__(self, *, start: Seconds, end: Seconds, bin_width: Seconds) -> None:
        if end <= start:
            raise ValueError(f"end ({end}) must exceed start ({start})")
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        self.start = start
        self.end = end
        self.bin_width = bin_width
        self._counts = [0.0] * int(math.ceil((end - start) / bin_width))
        self.dropped = 0
        self.total = 0

    def add(self, t: Seconds) -> None:
        """Count one event instant (O(1))."""
        if self.start <= t < self.end:
            self._counts[int((t - self.start) / self.bin_width)] += 1.0
            self.total += 1
        else:
            self.dropped += 1

    def add_many(self, times: Iterable[Seconds]) -> None:
        for t in times:
            self.add(t)

    @property
    def counts(self) -> List[float]:
        return list(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def to_series(self, *, label: str = "") -> "Series":
        """Snapshot as a :class:`~repro.analysis.timeseries.Series`."""
        from repro.analysis.timeseries import Series

        return Series(
            start=self.start,
            bin_width=self.bin_width,
            values=tuple(self._counts),
            label=label,
        )

    def __repr__(self) -> str:
        return (
            f"StreamingBinCounter([{self.start}, {self.end}), "
            f"bins={len(self._counts)}, total={self.total}, "
            f"dropped={self.dropped})"
        )
