"""O(1)-per-sample streaming accumulators for metrics collection.

Materialising a Python list per sample just to compute an aggregate
afterwards costs an allocation, a pointer append, and a second full
pass — per sample, on the simulation's hot path.  The accumulators here
ingest each observation in O(1) and answer the aggregate queries the
experiments actually make:

* :class:`StreamingMoments` — count/sum/sum-of-squares moments (mean,
  variance, stddev, min/max) with exact merging.
* :class:`ReservoirSample` — a fixed-size uniform sample (Algorithm R)
  for quantiles of unbounded streams.
* :class:`StreamingBinCounter` — per-bin event counts over a fixed
  window; the incremental form of
  :func:`repro.analysis.timeseries.bin_count`, and convertible to the
  same :class:`~repro.analysis.timeseries.Series`.

Quantiles come from the reservoir (exact over the retained sample);
see ``docs/ARCHITECTURE.md`` ("Performance").
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Optional

from repro.core.rng import DEFAULT_SEED, derive_seed
from repro.core.types import Seconds


class StreamingMoments:
    """Count/sum/sum-of-squares accumulator with O(1) ingest.

    The moment form (rather than Welford's recurrence) makes
    two-accumulator :meth:`merge` exact, which parallel sweep
    collection needs.
    Variance is computed as ``E[x²] − E[x]²`` with a non-negativity
    clamp for float cancellation.
    """

    __slots__ = ("count", "total", "total_sq", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, x: float) -> None:
        """Ingest one observation in O(1)."""
        self.count += 1
        self.total += x
        self.total_sq += x * x
        if self.minimum is None or x < self.minimum:
            self.minimum = x
        if self.maximum is None or x > self.maximum:
            self.maximum = x

    def add_many(self, values: Iterable[float]) -> None:
        """Ingest a stream of observations."""
        for x in values:
            self.add(x)

    def merge(self, other: "StreamingMoments") -> None:
        """Fold another accumulator into this one (exact)."""
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        if other.minimum is not None and (
            self.minimum is None or other.minimum < self.minimum
        ):
            self.minimum = other.minimum
        if other.maximum is not None and (
            self.maximum is None or other.maximum > self.maximum
        ):
            self.maximum = other.maximum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two observations)."""
        if self.count < 2:
            return 0.0
        mean = self.total / self.count
        variance = self.total_sq / self.count - mean * mean
        return variance if variance > 0.0 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        if not self.count:
            return "StreamingMoments(empty)"
        return (
            f"StreamingMoments(n={self.count}, mean={self.mean:.4g}, "
            f"min={self.minimum:.4g}, max={self.maximum:.4g})"
        )


class ReservoirSample:
    """A fixed-size uniform random sample of an unbounded stream.

    Algorithm R: the first ``capacity`` observations fill the
    reservoir; observation ``i`` (0-based) then replaces a random slot
    with probability ``capacity / (i + 1)``.  Every prefix of the
    stream is uniformly represented, so sample quantiles estimate
    stream quantiles without retaining the stream.

    Args:
        capacity: Reservoir size (trade accuracy for memory).
        rng: Random stream; defaults to a stream seeded
            deterministically from :data:`repro.core.rng.DEFAULT_SEED`
            so identically-fed reservoirs retain identical samples
            across processes and runs (pass your own seeded
            ``random.Random`` to decorrelate multiple reservoirs).
    """

    __slots__ = ("_capacity", "_rng", "_seen", "_sample")

    def __init__(self, capacity: int, rng: Optional[random.Random] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._rng = (
            rng
            if rng is not None
            else random.Random(derive_seed(DEFAULT_SEED, "metrics.reservoir"))
        )
        self._seen = 0
        self._sample: List[float] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def seen(self) -> int:
        """Total observations ingested (retained or not)."""
        return self._seen

    def add(self, x: float) -> None:
        """Ingest one observation in O(1)."""
        self._seen += 1
        if len(self._sample) < self._capacity:
            self._sample.append(x)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self._capacity:
            self._sample[slot] = x

    def values(self) -> List[float]:
        """A copy of the current reservoir contents (unordered)."""
        return list(self._sample)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of the retained sample.

        Nearest-rank on the sorted reservoir; raises if empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if not self._sample:
            raise ValueError("no observations recorded")
        ordered = sorted(self._sample)
        rank = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[rank]

    def __repr__(self) -> str:
        return (
            f"ReservoirSample(capacity={self._capacity}, "
            f"held={len(self._sample)}, seen={self._seen})"
        )


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
