"""Unit tests for the adaptive value-domain TTR policy (Section 4.1)."""

from __future__ import annotations

import pytest

from repro.consistency.adaptive_value import (
    AdaptiveValueParameters,
    AdaptiveValueTTRPolicy,
    adaptive_value_policy_factory,
)
from repro.core.errors import PolicyConfigurationError
from repro.core.types import ObjectId, ObjectSnapshot, TTRBounds

DELTA = 1.0
BOUNDS = TTRBounds(ttr_min=1.0, ttr_max=1000.0)


def outcome(poll_time, value, *, modified=True):
    """A poll's fields, in ``next_ttr``'s argument order."""
    return (
        poll_time,
        modified,
        ObjectSnapshot(ObjectId("s"), version=1, last_modified=poll_time, value=value),
        None,
        None,
    )


def make_policy(*, delta=DELTA, bounds=BOUNDS, w=1.0, alpha=1.0, first_ttr=None):
    return AdaptiveValueTTRPolicy(
        delta,
        bounds=bounds,
        parameters=AdaptiveValueParameters(
            smoothing_weight=w, alpha=alpha, first_ttr=first_ttr
        ),
    )


class TestEquation9:
    def test_ttr_is_delta_over_rate(self):
        policy = make_policy()
        policy.next_ttr(*outcome(0.0, 10.0))
        # Value moved 0.5 in 10s → r = 0.05 → TTR = 1/0.05 = 20.
        ttr = policy.next_ttr(*outcome(10.0, 10.5))
        assert ttr == pytest.approx(20.0)

    def test_static_value_earns_ttr_max(self):
        policy = make_policy()
        policy.next_ttr(*outcome(0.0, 10.0))
        ttr = policy.next_ttr(*outcome(10.0, 10.0))
        assert ttr == BOUNDS.ttr_max

    def test_first_poll_keeps_initial_ttr(self):
        policy = make_policy(first_ttr=5.0)
        assert policy.first_ttr() == 5.0
        # One observation establishes a baseline; no rate exists yet, so
        # the TTR is left unchanged rather than guessing "static".
        ttr = policy.next_ttr(*outcome(0.0, 10.0))
        assert ttr == 5.0

    def test_faster_change_means_smaller_ttr(self):
        slow = make_policy()
        fast = make_policy()
        slow.next_ttr(*outcome(0.0, 10.0))
        fast.next_ttr(*outcome(0.0, 10.0))
        slow_ttr = slow.next_ttr(*outcome(10.0, 10.1))
        fast_ttr = fast.next_ttr(*outcome(10.0, 15.0))
        assert fast_ttr < slow_ttr

    def test_missing_value_rejected(self):
        policy = make_policy()
        bad = (
            0.0,
            True,
            ObjectSnapshot(ObjectId("s"), version=1, last_modified=0.0),
            None,
            None,
        )
        with pytest.raises(PolicyConfigurationError, match="value"):
            policy.next_ttr(*bad)


class TestSmoothingAndEquation10:
    def test_smoothing_blends_successive_estimates(self):
        policy = make_policy(w=0.5)
        policy.next_ttr(*outcome(0.0, 0.0))
        first = policy.next_ttr(*outcome(10.0, 1.0))   # raw 10
        second = policy.next_ttr(*outcome(20.0, 3.0))  # raw 5
        # smoothed = 0.5*5 + 0.5*10 = 7.5
        assert first == pytest.approx(10.0)
        assert second == pytest.approx(7.5)

    def test_alpha_blends_toward_observed_min(self):
        policy = make_policy(w=1.0, alpha=0.5)
        policy.next_ttr(*outcome(0.0, 0.0))
        policy.next_ttr(*outcome(10.0, 10.0))   # raw TTR 1 (fast!) → min=1
        ttr = policy.next_ttr(*outcome(20.0, 10.1))  # raw TTR 100
        # blend = 0.5*100 + 0.5*1 = 50.5
        assert ttr == pytest.approx(50.5)
        assert policy.observed_min_ttr == pytest.approx(1.0)

    def test_alpha_one_ignores_observed_min(self):
        policy = make_policy(w=1.0, alpha=1.0)
        policy.next_ttr(*outcome(0.0, 0.0))
        policy.next_ttr(*outcome(10.0, 10.0))
        ttr = policy.next_ttr(*outcome(20.0, 10.1))
        assert ttr == pytest.approx(100.0)

    def test_clamped_into_bounds(self):
        tight = TTRBounds(ttr_min=5.0, ttr_max=50.0)
        policy = make_policy(bounds=tight)
        policy.next_ttr(*outcome(0.0, 0.0))
        fast = policy.next_ttr(*outcome(1.0, 100.0))  # raw 0.01
        assert fast == 5.0
        policy2 = make_policy(bounds=tight)
        policy2.next_ttr(*outcome(0.0, 0.0))
        slow = policy2.next_ttr(*outcome(100.0, 0.001))  # raw huge
        assert slow == 50.0


class TestRetargetDelta:
    def test_retarget_changes_future_ttr(self):
        policy = make_policy()
        policy.next_ttr(*outcome(0.0, 0.0))
        before = policy.next_ttr(*outcome(10.0, 1.0))  # r=0.1, TTR=10
        policy.retarget_delta(2.0)
        # Same rate, doubled delta → doubled raw TTR (w=1, alpha=1).
        after = policy.next_ttr(*outcome(20.0, 2.0))
        assert after == pytest.approx(before * 2.0)
        assert policy.delta == 2.0

    def test_retarget_rejects_non_positive(self):
        policy = make_policy()
        with pytest.raises(ValueError):
            policy.retarget_delta(0.0)


class TestParametersValidation:
    def test_zero_smoothing_weight_rejected(self):
        with pytest.raises(PolicyConfigurationError):
            AdaptiveValueParameters(smoothing_weight=0.0)

    def test_out_of_range_alpha_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveValueParameters(alpha=1.5)

    def test_non_positive_first_ttr_rejected(self):
        with pytest.raises(PolicyConfigurationError):
            AdaptiveValueParameters(first_ttr=0.0)


class TestFactory:
    def test_independent_instances(self):
        factory = adaptive_value_policy_factory(
            DELTA, ttr_min=1.0, ttr_max=100.0
        )
        p1 = factory(ObjectId("a"))
        p2 = factory(ObjectId("b"))
        p1.next_ttr(*outcome(0.0, 0.0))
        p1.next_ttr(*outcome(10.0, 0.5))  # r = 0.05 → TTR = 20
        assert p1.current_ttr == pytest.approx(20.0)
        assert p2.current_ttr == 1.0  # untouched instance
