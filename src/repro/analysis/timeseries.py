"""Time-series utilities for experiment post-processing.

Figures 4, 6 and 8 of the paper are time-series plots; these helpers
turn event times and sampled signals into evenly binned series suitable
for ASCII rendering or downstream plotting.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.core.types import Seconds


@dataclass(frozen=True)
class Series:
    """An evenly binned time series.

    Attributes:
        start: Time of the left edge of the first bin.
        bin_width: Width of each bin, in seconds.
        values: One value per bin.
        label: Name for rendering.
    """

    start: Seconds
    bin_width: Seconds
    values: Tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {self.bin_width}")

    @property
    def end(self) -> Seconds:
        return self.start + self.bin_width * len(self.values)

    def bin_centers(self) -> List[Seconds]:
        return [
            self.start + (i + 0.5) * self.bin_width for i in range(len(self.values))
        ]

    def __len__(self) -> int:
        return len(self.values)


def bin_count(
    times: Iterable[Seconds],
    *,
    start: Seconds,
    end: Seconds,
    bin_width: Seconds,
    label: str = "",
) -> Series:
    """Count event instants per bin over [start, end).

    ``times`` may be any iterable (callers can stream event times from
    a log without materialising a list); each instant is binned in O(1)
    and instants outside the window are ignored.
    """
    if end <= start:
        raise ValueError(f"end ({end}) must exceed start ({start})")
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    counts = [0.0] * int(math.ceil((end - start) / bin_width))
    for t in times:
        if start <= t < end:
            counts[int((t - start) / bin_width)] += 1.0
    return Series(start=start, bin_width=bin_width, values=tuple(counts), label=label)


def sample_step_function(
    knots: Sequence[Tuple[Seconds, float]],
    *,
    start: Seconds,
    end: Seconds,
    bin_width: Seconds,
    initial: float = math.nan,
    label: str = "",
) -> Series:
    """Sample a piecewise-constant signal at bin centers.

    ``knots`` are (time, new_value) change points, ascending in time.
    Bins whose center precedes the first knot get ``initial``.
    """
    if end <= start:
        raise ValueError(f"end ({end}) must exceed start ({start})")
    times = [t for t, _ in knots]
    for earlier, later in zip(times, times[1:]):
        if later < earlier:
            raise ValueError("knots must be ascending in time")
    n = int(math.ceil((end - start) / bin_width))
    values: List[float] = []
    for i in range(n):
        center = start + (i + 0.5) * bin_width
        index = bisect.bisect_right(times, center) - 1
        values.append(knots[index][1] if index >= 0 else initial)
    return Series(start=start, bin_width=bin_width, values=tuple(values), label=label)


def ratio_series(numerator: Series, denominator: Series, *, label: str = "") -> Series:
    """Element-wise ratio of two aligned series (NaN where undefined)."""
    if (
        numerator.start != denominator.start
        or numerator.bin_width != denominator.bin_width
        or len(numerator) != len(denominator)
    ):
        raise ValueError("series are not aligned")
    values = tuple(
        (a / b) if b not in (0, 0.0) else math.nan
        for a, b in zip(numerator.values, denominator.values)
    )
    return Series(
        start=numerator.start,
        bin_width=numerator.bin_width,
        values=values,
        label=label or f"{numerator.label}/{denominator.label}",
    )
