"""Synthetic stock-price tick traces (Table 3 substitute).

The paper's value-domain experiments use two stock traces collected from
quote.yahoo.com (Table 3):

=========  ====================  =======  =========  =========
Stock      Window                Updates  Min value  Max value
=========  ====================  =======  =========  =========
AT&T       May 22 13:50-16:50    653      $35.8      $36.5
Yahoo      Mar 30 13:30-16:30    2204     $160.2     $171.2
=========  ====================  =======  =========  =========

The two traces deliberately contrast a *slow, narrow* mover (AT&T: one
tick every ~16.5 s, a $0.70 range) with a *fast, wide* mover (Yahoo: one
tick every ~4.9 s, an $11 range).  The generator reproduces exactly the
tick counts, window length, and min/max range:

1. Tick instants: order statistics of N uniforms over the window (a
   homogeneous Poisson process conditioned on its count), with minimum
   spacing enforced.
2. Tick values: a mean-reverting (AR(1) / Ornstein–Uhlenbeck style)
   random walk, affinely rescaled so the observed min/max equal the
   Table 3 range exactly.  Rescaling is shape-preserving, so temporal
   locality — the property the adaptive-TTR estimator exploits — is
   retained.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.rng import RngRegistry
from repro.core.types import HOUR, ObjectId, Seconds
from repro.traces.model import (
    TraceMetadata,
    UpdateTrace,
    select_traces,
    trace_from_ticks,
)

#: Minimum separation between ticks; the quote server sampled at ~1 Hz.
MIN_TICK_SPACING: Seconds = 0.5


@dataclass(frozen=True)
class StockTraceSpec:
    """Calibration target for one synthetic stock trace (a Table 3 row).

    Attributes:
        name: Ticker/name from Table 3.
        duration: Observation window length in seconds.
        tick_count: Number of value updates in the window.
        min_value: Smallest traded value in the window (matched exactly).
        max_value: Largest traded value in the window (matched exactly).
        mean_reversion: AR(1) pull toward the running mean, in [0, 1).
            Higher values make the series range-bound; lower values let
            it trend.  Affects shape only, not the calibrated range.
            The default is weak: real tick data is near-martingale at
            second scales (|net change| grows ~√T), and the adaptive-TTR
            techniques rely on exactly that temporal locality.  Strong
            reversion would make per-tick noise dominate the range and
            defeat any rate extrapolation — the paper's own "data that
            exhibits less locality" caveat.
        volatility_clustering: In [0, 1); blends in GARCH-like bursts of
            larger steps, as real tick data exhibits.
    """

    name: str
    duration: Seconds
    tick_count: int
    min_value: float
    max_value: float
    mean_reversion: float = 0.002
    volatility_clustering: float = 0.3

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.tick_count < 2:
            raise ValueError(f"tick_count must be >= 2, got {self.tick_count}")
        if self.max_value <= self.min_value:
            raise ValueError(
                f"max_value ({self.max_value}) must exceed "
                f"min_value ({self.min_value})"
            )
        if not 0 <= self.mean_reversion < 1:
            raise ValueError(
                f"mean_reversion must be in [0, 1), got {self.mean_reversion}"
            )
        if not 0 <= self.volatility_clustering < 1:
            raise ValueError(
                "volatility_clustering must be in [0, 1), "
                f"got {self.volatility_clustering}"
            )
        if self.tick_count * MIN_TICK_SPACING >= self.duration:
            raise ValueError(
                f"{self.tick_count} ticks cannot fit in {self.duration}s "
                f"with {MIN_TICK_SPACING}s minimum spacing"
            )

    @property
    def mean_tick_interval(self) -> Seconds:
        return self.duration / self.tick_count

    @property
    def value_range(self) -> float:
        return self.max_value - self.min_value


# ----------------------------------------------------------------------
# Table 3 presets.
# ----------------------------------------------------------------------
ATT = StockTraceSpec(
    name="AT&T",
    duration=3 * HOUR,
    tick_count=653,
    min_value=35.8,
    max_value=36.5,
)

YAHOO = StockTraceSpec(
    name="Yahoo",
    duration=3 * HOUR,
    tick_count=2204,
    min_value=160.2,
    max_value=171.2,
)

TABLE3_SPECS: tuple[StockTraceSpec, ...] = (ATT, YAHOO)

TABLE3_BY_KEY = {
    "att": ATT,
    "yahoo": YAHOO,
}


class StockTraceGenerator:
    """Generates calibrated mean-reverting tick traces."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def generate(
        self, spec: StockTraceSpec, *, object_id: Optional[str] = None
    ) -> UpdateTrace:
        """Generate a trace with exactly ``spec.tick_count`` ticks whose
        values span exactly [spec.min_value, spec.max_value]."""
        times = self._sample_times(spec)
        raw = self._random_walk(spec)
        values = _rescale_to_range(raw, spec.min_value, spec.max_value)
        oid = ObjectId(object_id if object_id is not None else spec.name)
        metadata = TraceMetadata(
            name=spec.name,
            description=(
                f"synthetic stock ticks calibrated to Table 3: "
                f"{spec.tick_count} ticks over {spec.duration / HOUR:.1f} h, "
                f"range [{spec.min_value}, {spec.max_value}]"
            ),
            source="synthetic:stocks",
            value_unit="USD",
        )
        return trace_from_ticks(
            oid,
            zip(times, values),
            start_time=0.0,
            end_time=spec.duration,
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    def _sample_times(self, spec: StockTraceSpec) -> List[Seconds]:
        """Poisson-process tick instants conditioned on the exact count."""
        times = sorted(
            self._rng.random() * spec.duration for _ in range(spec.tick_count)
        )
        # Enforce minimum spacing with a forward pass, then clamp.
        for i in range(1, len(times)):
            if times[i] - times[i - 1] < MIN_TICK_SPACING:
                times[i] = times[i - 1] + MIN_TICK_SPACING
        if times[-1] >= spec.duration:
            times[-1] = spec.duration - MIN_TICK_SPACING
            for i in range(len(times) - 2, -1, -1):
                if times[i + 1] - times[i] < MIN_TICK_SPACING:
                    times[i] = times[i + 1] - MIN_TICK_SPACING
        return times

    def _random_walk(self, spec: StockTraceSpec) -> List[float]:
        """Mean-reverting AR(1) walk with volatility clustering.

        The walk runs in arbitrary units; the caller rescales it into the
        calibrated price range.
        """
        n = spec.tick_count
        values = [0.0] * n
        level = 0.0
        sigma = 1.0
        for i in range(1, n):
            # Volatility clustering: sigma itself follows a slow
            # multiplicative random walk, bounded to [0.25, 4].
            if spec.volatility_clustering > 0:
                shock = 1.0 + spec.volatility_clustering * (
                    self._rng.random() - 0.5
                ) * 0.5
                sigma = min(4.0, max(0.25, sigma * shock))
            step = self._rng.gauss(0.0, sigma)
            level = level * (1.0 - spec.mean_reversion) + step
            values[i] = level
        return values


def _rescale_to_range(values: Sequence[float], low: float, high: float) -> List[float]:
    """Affinely map values so min→low and max→high exactly."""
    lo = min(values)
    hi = max(values)
    if hi <= lo:
        # Degenerate (constant) walk — spread linearly across the range
        # so the trace still exercises value-change code paths.
        n = len(values)
        if n == 1:
            return [low]
        return [low + (high - low) * i / (n - 1) for i in range(n)]
    scale = (high - low) / (hi - lo)
    return [low + (v - lo) * scale for v in values]


def generate_table3_traces(
    rngs: RngRegistry, *, specs: Sequence[StockTraceSpec] = TABLE3_SPECS
) -> dict[str, UpdateTrace]:
    """Generate all Table 3 traces keyed by their short names."""
    inverse = {spec.name: key for key, spec in TABLE3_BY_KEY.items()}
    traces: dict[str, UpdateTrace] = {}
    for spec in specs:
        key = inverse.get(spec.name, spec.name)
        generator = StockTraceGenerator(rngs.stream(f"stocks.{key}"))
        traces[key] = generator.generate(spec, object_id=key)
    return traces


def table3_traces(keys: Sequence[str], seed: int) -> List[UpdateTrace]:
    """The Table 3 traces named by ``keys`` at one seed, in key order."""
    return select_traces(
        generate_table3_traces(RngRegistry(seed)), keys, "stock"
    )
