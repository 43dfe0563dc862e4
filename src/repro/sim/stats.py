"""Statistics primitives for simulation components.

Two workhorses:

* :class:`Counter` — monotone named counters (polls, violations, hits).
* :class:`SummaryStats` — streaming min/max/mean/variance via Welford's
  algorithm, for the trace characterisation tables (update gaps,
  value changes).

Eq. 14 fidelity (total out-of-sync time) is computed in
:mod:`repro.metrics.fidelity`, not here.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, Iterator, Optional


class Counter:
    """A set of named monotone counters.

    Attributes:
        counts: The live mapping.  Per-event callers bump it in place
            (``counts[name] += 1``, from zero) so counting costs no
            call; :meth:`increment` is the checked entry point.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: DefaultDict[str, int] = defaultdict(int)

    def increment(self, name: str, by: int = 1) -> int:
        """Increase counter ``name`` by ``by`` (must be >= 0)."""
        if by < 0:
            raise ValueError(f"cannot increment by negative amount {by}")
        counts = self.counts
        new = counts[name] = counts[name] + by
        return new

    def get(self, name: str) -> int:
        """Return the current value of ``name`` (0 if never incremented)."""
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Return a copy of all counters."""
        return dict(self.counts)

    def __iter__(self) -> Iterator[str]:
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return f"Counter({dict(self.counts)})"


@dataclass(slots=True)
class SummarySnapshot:
    """An immutable snapshot of a :class:`SummaryStats`."""

    count: int
    mean: float
    variance: float
    minimum: float
    maximum: float

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance) if self.variance > 0 else 0.0


class SummaryStats:
    """Streaming summary statistics (Welford's online algorithm)."""

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, x: float) -> None:
        """Record one observation."""
        if not math.isfinite(x):
            raise ValueError(f"observation must be finite, got {x}")
        self._count += 1
        delta = x - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (x - self._mean)
        self._min = x if self._min is None else min(self._min, x)
        self._max = x if self._max is None else max(self._max, x)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        """Population variance (0.0 when fewer than two observations)."""
        if self._count < 2:
            return 0.0
        return self._m2 / self._count

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if self._min is None:
            raise ValueError("no observations recorded")
        return self._min

    @property
    def maximum(self) -> float:
        if self._max is None:
            raise ValueError("no observations recorded")
        return self._max

    def snapshot(self) -> SummarySnapshot:
        """Return an immutable copy of the current statistics."""
        if self._count == 0:
            return SummarySnapshot(0, 0.0, 0.0, math.nan, math.nan)
        return SummarySnapshot(
            count=self._count,
            mean=self._mean,
            variance=self.variance,
            minimum=self.minimum,
            maximum=self.maximum,
        )

    def __repr__(self) -> str:
        if self._count == 0:
            return "SummaryStats(empty)"
        return (
            f"SummaryStats(n={self._count}, mean={self._mean:.4g}, "
            f"min={self._min:.4g}, max={self._max:.4g})"
        )
