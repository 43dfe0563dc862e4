"""Temporal violation detection at the proxy (paper §3.1 Case 2, §5.1).

A Δt violation occurs when the first update since the previous poll is
more than Δ older than the current poll instant (Figure 1).  Detecting
it requires knowing *when the first unseen update happened*, which plain
HTTP does not expose — responses carry only the latest ``Last-Modified``.
The paper proposes two remedies; we implement both, plus the trivial
exact mode enabled by the modification-history extension:

* :class:`HistoryViolationDetector` — uses the §5.1 history header;
  detection is exact (both Figure 1(a) and 1(b) cases caught).
* :class:`LastModifiedViolationDetector` — plain HTTP/1.1; catches only
  the Figure 1(a) case where the *latest* update is already older than Δ.
* :class:`InferredViolationDetector` — plain HTTP plus statistics: it
  models updates as Poisson with an adaptively estimated rate and flags
  a violation when the posterior probability that the first unseen
  update was older than Δ exceeds a threshold ("the proxy can try to
  deduce whether a violation occurred ... maintaining statistics about
  past [updates] so as to infer the probability of a violation").
"""

from __future__ import annotations

import abc
import math
from typing import Optional

from repro.analysis.rates import UpdateRateEstimator
from repro.consistency.base import ViolationJudgement
from repro.core.types import ObjectSnapshot, Seconds, require_fraction, require_positive


class ViolationDetector(abc.ABC):
    """Decides from a poll's fields whether the Δ bound was violated.

    :meth:`judge` takes them positionally, as ``next_ttr`` does."""

    #: Machine-readable mode name.
    mode: str = "abstract"

    def __init__(self, delta: Seconds) -> None:
        self._delta = require_positive("delta", delta)
        self._previous_poll_time: Optional[Seconds] = None

    @property
    def delta(self) -> Seconds:
        return self._delta

    def judge(
        self, now: Seconds, modified: bool, snapshot: ObjectSnapshot,
        first_unseen: Optional[Seconds], updates_since: Optional[int],
    ) -> ViolationJudgement:
        """Assess a poll outcome, then remember the poll time."""
        judgement = self._judge(now, modified, snapshot, first_unseen, updates_since)
        self._previous_poll_time = now
        return judgement

    @abc.abstractmethod
    def _judge(
        self, now: Seconds, modified: bool, snapshot: ObjectSnapshot,
        first_unseen: Optional[Seconds], updates_since: Optional[int],
    ) -> ViolationJudgement:
        ...

    @property
    def previous_poll_time(self) -> Optional[Seconds]:
        return self._previous_poll_time


class HistoryViolationDetector(ViolationDetector):
    """Exact detection via the modification-history extension."""

    mode = "history"

    def _judge(
        self, now: Seconds, modified: bool, snapshot: ObjectSnapshot,
        first_unseen: Optional[Seconds], updates_since: Optional[int],
    ) -> ViolationJudgement:
        if not modified:
            return ViolationJudgement(violated=False, basis="not-modified")
        if first_unseen is None:
            # The server did not supply history (extension unsupported);
            # degrade gracefully to last-modified-only detection.
            return _judge_from_last_modified(now, snapshot, self._delta)
        out_sync = now - first_unseen
        if out_sync > self._delta:
            return ViolationJudgement(
                violated=True, observed_out_sync=out_sync, basis="history"
            )
        return ViolationJudgement(violated=False, basis="history")


class LastModifiedViolationDetector(ViolationDetector):
    """Plain HTTP/1.1 detection: only the latest update time is known."""

    mode = "last_modified_only"

    def _judge(
        self, now: Seconds, modified: bool, snapshot: ObjectSnapshot,
        first_unseen: Optional[Seconds], updates_since: Optional[int],
    ) -> ViolationJudgement:
        if not modified:
            return ViolationJudgement(violated=False, basis="not-modified")
        return _judge_from_last_modified(now, snapshot, self._delta)


class InferredViolationDetector(ViolationDetector):
    """Probabilistic detection from plain HTTP plus update-rate statistics.

    When a poll finds the object modified but the latest update is
    within Δ (so :class:`LastModifiedViolationDetector` would say "no
    violation"), earlier unseen updates may still have violated the
    bound (Figure 1(b)).  Model unseen updates as Poisson with rate λ̂
    estimated from observed ``Last-Modified`` gaps.  Conditioned on at
    least one update in the poll interval of length ``T``, the first
    update is older than Δ with probability::

        P = (1 − exp(−λ̂ (T − Δ))) / (1 − exp(−λ̂ T)),   T > Δ

    A violation is flagged when ``P`` exceeds ``probability_threshold``.
    """

    mode = "inferred"

    def __init__(
        self,
        delta: Seconds,
        *,
        probability_threshold: float = 0.5,
        rate_smoothing: float = 0.3,
    ) -> None:
        super().__init__(delta)
        self._threshold = require_fraction(
            "probability_threshold", probability_threshold
        )
        self._estimator = UpdateRateEstimator(smoothing=rate_smoothing)

    @property
    def estimator(self) -> UpdateRateEstimator:
        return self._estimator

    def _judge(
        self, now: Seconds, modified: bool, snapshot: ObjectSnapshot,
        first_unseen: Optional[Seconds], updates_since: Optional[int],
    ) -> ViolationJudgement:
        if modified:
            self._estimator.observe_modification(snapshot.last_modified)
        if not modified:
            return ViolationJudgement(violated=False, basis="not-modified")

        # Certain violation: even the newest update is older than Δ.
        certain = _judge_from_last_modified(now, snapshot, self._delta)
        if certain.violated:
            return certain

        prev = self.previous_poll_time
        if prev is None:
            return ViolationJudgement(violated=False, basis="inferred:first-poll")
        interval = now - prev
        if interval <= self._delta:
            # The whole interval fits inside Δ: no unseen update can be
            # older than Δ.
            return ViolationJudgement(violated=False, basis="inferred:short-interval")

        rate = self._estimator.rate(now)
        if rate is None:
            return ViolationJudgement(violated=False, basis="inferred:no-rate")
        probability = _first_update_older_than_delta_probability(
            rate, interval, self._delta
        )
        if probability > self._threshold:
            # Expected first-update instant, conditioned on the estimate:
            # ~one mean gap after the previous poll.
            expected_first = prev + min(1.0 / rate, interval)
            out_sync = max(now - expected_first, self._delta)
            return ViolationJudgement(
                violated=True,
                observed_out_sync=out_sync,
                basis=f"inferred:p={probability:.3f}",
            )
        return ViolationJudgement(
            violated=False, basis=f"inferred:p={probability:.3f}"
        )


def _judge_from_last_modified(
    now: Seconds, snapshot: ObjectSnapshot, delta: Seconds
) -> ViolationJudgement:
    """Figure 1(a) check: latest update already older than Δ."""
    out_sync = now - snapshot.last_modified
    if out_sync > delta:
        return ViolationJudgement(
            violated=True, observed_out_sync=out_sync, basis="last-modified"
        )
    return ViolationJudgement(violated=False, basis="last-modified")


def _first_update_older_than_delta_probability(
    rate: float, interval: Seconds, delta: Seconds
) -> float:
    """P(first update in (0, T−Δ] | ≥1 update in (0, T]) for Poisson(λ)."""
    if interval <= delta:
        return 0.0
    denominator = -math.expm1(-rate * interval)  # 1 − e^{−λT}
    if denominator <= 0:
        return 0.0
    numerator = -math.expm1(-rate * (interval - delta))  # 1 − e^{−λ(T−Δ)}
    return min(1.0, max(0.0, numerator / denominator))


def make_detector(
    mode: str,
    delta: Seconds,
    *,
    probability_threshold: float = 0.5,
    rate_smoothing: float = 0.3,
) -> ViolationDetector:
    """Construct a detector by mode name.

    Modes: ``history``, ``last_modified_only``, ``inferred``.
    """
    if mode == "history":
        return HistoryViolationDetector(delta)
    if mode == "last_modified_only":
        return LastModifiedViolationDetector(delta)
    if mode == "inferred":
        return InferredViolationDetector(
            delta,
            probability_threshold=probability_threshold,
            rate_smoothing=rate_smoothing,
        )
    raise ValueError(
        f"unknown detection mode {mode!r}; "
        "expected 'history', 'last_modified_only', or 'inferred'"
    )
