"""Adaptive TTR for value-domain Δv-consistency (paper Section 4.1).

The proxy must refresh whenever the object's *value* has drifted by Δ
from the cached copy.  It estimates the value's rate of change from the
two most recent polls (Figure 2)::

    r   = |P_curr − P_prev| / (t_curr − t_prev)
    TTR = Δ / r                                      (Eq. 9)

refines the estimate with exponential smoothing
(``TTR = w·TTR + (1−w)·TTR_prev``), and finally applies Eq. 10::

    TTR = max(TTR_min, min(TTR_max, α·TTR + (1−α)·TTR_observed_min))

``TTR_observed_min`` is the smallest (raw, smoothed) TTR estimate seen
so far; blending toward it biases the policy conservative for data with
little temporal locality (small α → frequent polls).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.rates import ValueRateEstimator
from repro.consistency.base import RefreshPolicy
from repro.core.errors import PolicyConfigurationError
from repro.core.types import (
    ObjectId,
    ObjectSnapshot,
    Seconds,
    TTRBounds,
    require_fraction,
    require_positive,
)


@dataclass(frozen=True)
class AdaptiveValueParameters:
    """Tunables of the adaptive value-domain TTR policy.

    Attributes:
        smoothing_weight: ``w`` — weight of the newest TTR estimate in
            the exponential smoothing step (1.0 disables smoothing).
        alpha: ``α`` in Eq. 10 — blend between the smoothed estimate and
            the most conservative (smallest) TTR observed so far.
        first_ttr: TTR used after the initial fetch, before any rate is
            known.  Defaults to TTR_min.
    """

    smoothing_weight: float = 0.5
    alpha: float = 0.7
    first_ttr: Optional[Seconds] = None

    def __post_init__(self) -> None:
        require_fraction("smoothing_weight", self.smoothing_weight)
        require_fraction("alpha", self.alpha)
        if self.smoothing_weight == 0.0:
            raise PolicyConfigurationError(
                "smoothing_weight must be > 0 (0 would freeze the TTR forever)"
            )
        if self.first_ttr is not None and self.first_ttr <= 0:
            raise PolicyConfigurationError(
                f"first_ttr must be positive, got {self.first_ttr}"
            )


class AdaptiveValueTTRPolicy(RefreshPolicy):
    """Per-object adaptive TTR for Δv-consistency (Eqs. 9–10)."""

    name = "adaptive_value"

    def __init__(
        self,
        delta: float,
        *,
        bounds: TTRBounds,
        parameters: AdaptiveValueParameters = AdaptiveValueParameters(),
    ) -> None:
        self._delta = require_positive("delta", delta)
        self._bounds = bounds
        self._parameters = parameters
        self._estimator = ValueRateEstimator()
        self._ttr: Seconds = (
            parameters.first_ttr
            if parameters.first_ttr is not None
            else bounds.ttr_min
        )
        self._ttr = bounds.clamp(self._ttr)
        self._smoothed_ttr: Optional[Seconds] = None
        self._observed_min_ttr: Optional[Seconds] = None

    # ------------------------------------------------------------------
    # RefreshPolicy interface
    # ------------------------------------------------------------------
    def first_ttr(self) -> Seconds:
        return self._ttr

    @property
    def current_ttr(self) -> Seconds:
        return self._ttr

    @property
    def delta(self) -> float:
        return self._delta

    @property
    def bounds(self) -> TTRBounds:
        return self._bounds

    @property
    def observed_min_ttr(self) -> Optional[Seconds]:
        return self._observed_min_ttr

    def reset(self) -> None:
        """Proxy-failure recovery: drop the learned rate/TTR history."""
        self._estimator = ValueRateEstimator()
        self._ttr = self._bounds.clamp(
            self._parameters.first_ttr
            if self._parameters.first_ttr is not None
            else self._bounds.ttr_min
        )
        self._smoothed_ttr = None
        self._observed_min_ttr = None

    def retarget_delta(self, new_delta: float) -> None:
        """Change the Δ bound in flight (partitioned-δ re-apportioning).

        The partitioned Mv approach periodically re-splits the group
        tolerance δ into per-object tolerances based on observed rates
        (Section 4.2); this is the hook it uses.
        """
        self._delta = require_positive("new_delta", new_delta)

    def next_ttr(
        self, now: Seconds, modified: bool, snapshot: ObjectSnapshot,
        first_unseen: Optional[Seconds], updates_since: Optional[int],
    ) -> Seconds:
        """Consume a poll and compute the next TTR per Eqs. 9–10."""
        value = snapshot.value
        if value is None:
            raise PolicyConfigurationError(
                f"object {snapshot.object_id!r} has no value; "
                "AdaptiveValueTTRPolicy requires valued objects"
            )
        rate = self._estimator.observe(now, value)
        if rate is None:
            # First observation: no rate exists yet.  Keep the current
            # TTR and leave the smoothing state untouched — feeding a
            # fabricated "static" estimate here would bias Eq. 10's
            # smoothed history toward TTR_max before any data arrives.
            return self._ttr
        raw_ttr = self._raw_ttr_from_rate(rate)
        smoothed = self._smooth(raw_ttr)
        self._observed_min_ttr = (
            smoothed
            if self._observed_min_ttr is None
            else min(self._observed_min_ttr, smoothed)
        )
        alpha = self._parameters.alpha
        blended = alpha * smoothed + (1.0 - alpha) * self._observed_min_ttr
        self._ttr = self._bounds.clamp(blended)
        return self._ttr

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _raw_ttr_from_rate(self, rate: Optional[float]) -> Seconds:
        """Eq. 9: TTR = Δ / r; a static object earns TTR_max."""
        if rate is None or rate <= 0.0:
            return self._bounds.ttr_max
        return self._delta / rate

    def _smooth(self, raw_ttr: Seconds) -> Seconds:
        """Exponential smoothing across successive raw estimates."""
        if self._smoothed_ttr is None:
            self._smoothed_ttr = raw_ttr
        else:
            w = self._parameters.smoothing_weight
            self._smoothed_ttr = w * raw_ttr + (1.0 - w) * self._smoothed_ttr
        return self._smoothed_ttr

    def __repr__(self) -> str:
        return (
            f"AdaptiveValueTTRPolicy(delta={self._delta}, "
            f"ttr={self._ttr:.2f})"
        )


def adaptive_value_policy_factory(
    delta: float,
    *,
    ttr_min: Seconds,
    ttr_max: Seconds,
    parameters: AdaptiveValueParameters = AdaptiveValueParameters(),
) -> Callable[[ObjectId], AdaptiveValueTTRPolicy]:
    """Factory producing an :class:`AdaptiveValueTTRPolicy` per object."""
    bounds = TTRBounds(ttr_min=ttr_min, ttr_max=ttr_max)

    def make(_object_id: ObjectId) -> AdaptiveValueTTRPolicy:
        return AdaptiveValueTTRPolicy(delta, bounds=bounds, parameters=parameters)

    return make
