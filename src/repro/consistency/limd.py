"""The LIMD adaptive-TTR algorithm (paper Section 3.1).

Linear-Increase Multiplicative-Decrease adaptation of the time-to-
refresh, analogous to TCP congestion control: probe upward while the
object is quiet, back off sharply on a consistency violation.  The four
cases, verbatim from the paper:

* **Case 1** — not modified since the last poll: ``TTR *= (1 + l)``
  with linear factor ``0 < l < 1`` (Eq. 6).
* **Case 2** — modified *and* the Δ bound was violated:
  ``TTR *= m`` with multiplicative factor ``0 < m < 1`` (Eq. 7).  The
  evaluation sets ``m`` adaptively to Δ / observed out-of-sync time.
* **Case 3** — modified but no violation: the proxy is polling at about
  the right frequency; fine-tune with ``TTR *= (1 + ε)``, ε ≥ 0 small
  (Eq. 8).
* **Case 4** — modified after a long quiet period: reset TTR to
  ``TTR_min`` so a suddenly-hot object is tracked immediately.

After every case the TTR is clamped into ``[TTR_min, TTR_max]``;
``TTR_min`` is typically Δ.  The algorithm needs only the two most
recent polls — a feature the paper highlights for proxy state economy
and failure recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.consistency.base import RefreshPolicy, ViolationJudgement
from repro.consistency.detection import ViolationDetector, make_detector
from repro.core.errors import PolicyConfigurationError
from repro.core.types import (
    ObjectId,
    ObjectSnapshot,
    Seconds,
    TTRBounds,
    require_positive,
)


@dataclass(frozen=True)
class LimdParameters:
    """Tunable parameters of the LIMD algorithm.

    Attributes:
        linear_increase: ``l`` in Eq. 6 (paper evaluation uses 0.2).
        epsilon: ``ε`` in Eq. 8 (paper evaluation uses 0.02).
        multiplicative_decrease: Fixed ``m`` in Eq. 7, or ``None`` to use
            the paper's adaptive choice m = Δ / observed out-of-sync
            time (falling back to ``fallback_decrease`` when the
            out-of-sync time is unknown).
        fallback_decrease: ``m`` used on a violation whose out-of-sync
            time the proxy could not observe.
        cold_reset_after: Case 4 trigger — if a modification is detected
            and the previous known modification is more than this many
            seconds in the past, reset TTR to TTR_min.  ``None``
            disables Case 4 (the TTR then recovers multiplicatively via
            Case 2, which is the behaviour visible in Figure 4(b)).
    """

    linear_increase: float = 0.2
    epsilon: float = 0.02
    multiplicative_decrease: Optional[float] = None
    fallback_decrease: float = 0.5
    cold_reset_after: Optional[Seconds] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.linear_increase < 1.0:
            raise PolicyConfigurationError(
                f"linear_increase must be in (0, 1), got {self.linear_increase}"
            )
        if self.epsilon < 0.0:
            raise PolicyConfigurationError(
                f"epsilon must be >= 0, got {self.epsilon}"
            )
        if self.multiplicative_decrease is not None and not (
            0.0 < self.multiplicative_decrease < 1.0
        ):
            raise PolicyConfigurationError(
                "multiplicative_decrease must be in (0, 1), "
                f"got {self.multiplicative_decrease}"
            )
        if not 0.0 < self.fallback_decrease < 1.0:
            raise PolicyConfigurationError(
                f"fallback_decrease must be in (0, 1), got {self.fallback_decrease}"
            )
        if self.cold_reset_after is not None and self.cold_reset_after <= 0:
            raise PolicyConfigurationError(
                f"cold_reset_after must be positive, got {self.cold_reset_after}"
            )


class LimdPolicy(RefreshPolicy):
    """Per-object LIMD state machine.

    Args:
        delta: The Δt bound this object must honour.
        bounds: TTR clamp range; the paper sets ``ttr_min = delta``.
        parameters: The l/m/ε knobs.
        detector: How violations are recognised from poll outcomes
            (see :mod:`repro.consistency.detection`).  Defaults to the
            exact history-based detector.
    """

    name = "limd"

    def __init__(
        self,
        delta: Seconds,
        *,
        bounds: Optional[TTRBounds] = None,
        parameters: LimdParameters = LimdParameters(),
        detector: Optional[ViolationDetector] = None,
    ) -> None:
        require_positive("delta", delta)
        self._delta = delta
        self._bounds = bounds or TTRBounds(ttr_min=delta, ttr_max=delta * 60)
        if self._bounds.ttr_min > delta:
            raise PolicyConfigurationError(
                f"ttr_min ({self._bounds.ttr_min}) must not exceed delta "
                f"({delta}); polling slower than Δ can never maintain the bound"
            )
        self._parameters = parameters
        self._detector = detector or make_detector("history", delta)
        # "The algorithm begins by initializing TTR = TTR_min = Δ."
        self._ttr: Seconds = self._bounds.ttr_min
        self._last_known_modification: Optional[Seconds] = None
        self._last_case: str = "init"

    # ------------------------------------------------------------------
    # RefreshPolicy interface
    # ------------------------------------------------------------------
    def first_ttr(self) -> Seconds:
        return self._ttr

    @property
    def current_ttr(self) -> Seconds:
        return self._ttr

    @property
    def last_case(self) -> str:
        """Which LIMD case the most recent poll fell into (observability)."""
        return self._last_case

    @property
    def delta(self) -> Seconds:
        return self._delta

    @property
    def bounds(self) -> TTRBounds:
        return self._bounds

    @property
    def parameters(self) -> LimdParameters:
        return self._parameters

    @property
    def detector(self) -> ViolationDetector:
        return self._detector

    def next_ttr(
        self, now: Seconds, modified: bool, snapshot: ObjectSnapshot,
        first_unseen: Optional[Seconds], updates_since: Optional[int],
    ) -> Seconds:
        """Apply Cases 1–4 to a poll outcome and return the new TTR."""
        judgement = self._detector.judge(
            now, modified, snapshot, first_unseen, updates_since
        )
        params = self._parameters

        if not modified:
            # Case 1: quiet object — linear probe upward.
            self._ttr = self._bounds.clamp(self._ttr * (1.0 + params.linear_increase))
            self._last_case = "case1"
            return self._ttr

        previous_modification = self._last_known_modification
        self._last_known_modification = snapshot.last_modified

        if self._is_cold_restart(snapshot.last_modified, previous_modification):
            # Case 4: update after a long silence — snap back to TTR_min.
            self._ttr = self._bounds.ttr_min
            self._last_case = "case4"
            return self._ttr

        if judgement.violated:
            # Case 2: violation — multiplicative back-off.
            m = self._decrease_factor(judgement)
            self._ttr = self._bounds.clamp(self._ttr * m)
            self._last_case = "case2"
            return self._ttr

        # Case 3: modified without violation — gentle fine-tuning.
        self._ttr = self._bounds.clamp(self._ttr * (1.0 + params.epsilon))
        self._last_case = "case3"
        return self._ttr

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _decrease_factor(self, judgement: ViolationJudgement) -> float:
        """The paper's adaptive m = Δ / out-sync, clamped into (0, 1)."""
        fixed = self._parameters.multiplicative_decrease
        if fixed is not None:
            return fixed
        out_sync = judgement.observed_out_sync
        if out_sync is None or out_sync <= self._delta:
            return self._parameters.fallback_decrease
        m = self._delta / out_sync
        # Guard against pathological tiny factors (an object silent for a
        # week then updated would otherwise crater the TTR far below any
        # useful value before the clamp).
        return max(min(m, 0.99), 0.01)

    def reset(self) -> None:
        """Proxy-failure recovery: TTR back to TTR_min, detector fresh.

        Implements the paper's recovery story verbatim — only the TTR
        (and the two-poll detector window) constitute LIMD state.
        """
        self._ttr = self._bounds.ttr_min
        self._last_known_modification = None
        self._last_case = "reset"
        self._detector = make_detector(self._detector.mode, self._delta)

    def _is_cold_restart(
        self, last_modified: Seconds, previous_modification: Optional[Seconds]
    ) -> bool:
        threshold = self._parameters.cold_reset_after
        if threshold is None or previous_modification is None:
            return False
        quiet = last_modified - previous_modification
        return quiet > threshold

    def __repr__(self) -> str:
        return (
            f"LimdPolicy(delta={self._delta}, ttr={self._ttr:.1f}, "
            f"last_case={self._last_case!r})"
        )


def limd_policy_factory(
    delta: Seconds,
    *,
    ttr_max: Optional[Seconds] = None,
    parameters: LimdParameters = LimdParameters(),
    detection_mode: str = "history",
) -> Callable[[ObjectId], LimdPolicy]:
    """Factory producing an independent :class:`LimdPolicy` per object.

    Args:
        delta: Δt bound (also TTR_min, per the paper).
        ttr_max: Upper TTR bound (default 60·Δ; the paper's evaluation
            uses 60 minutes with Δ in minutes).
        parameters: LIMD knobs.
        detection_mode: Violation detection mode (see
            :func:`repro.consistency.detection.make_detector`).
    """
    bounds = TTRBounds(
        ttr_min=delta, ttr_max=ttr_max if ttr_max is not None else delta * 60
    )

    def make(_object_id: ObjectId) -> LimdPolicy:
        return LimdPolicy(
            delta,
            bounds=bounds,
            parameters=parameters,
            detector=make_detector(detection_mode, delta),
        )

    return make
