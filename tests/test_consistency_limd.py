"""Unit tests for the LIMD algorithm (paper Section 3.1, Cases 1-4)."""

from __future__ import annotations

import pytest

from repro.consistency.detection import make_detector
from repro.consistency.limd import LimdParameters, LimdPolicy, limd_policy_factory
from repro.core.errors import PolicyConfigurationError
from repro.core.types import ObjectId, ObjectSnapshot, TTRBounds

DELTA = 10.0


def outcome(
    poll_time,
    *,
    modified,
    last_modified=None,
    version=1,
    first_unseen=None,
    updates=None,
):
    """A poll's fields, in ``next_ttr``'s argument order."""
    last_modified = last_modified if last_modified is not None else poll_time
    return (
        poll_time,
        modified,
        ObjectSnapshot(ObjectId("x"), version=version, last_modified=last_modified),
        first_unseen,
        updates,
    )


def make_policy(
    *,
    delta=DELTA,
    ttr_max=600.0,
    l=0.2,
    epsilon=0.02,
    m=None,
    fallback=0.5,
    cold_reset_after=None,
    detection_mode="history",
):
    return LimdPolicy(
        delta,
        bounds=TTRBounds(ttr_min=delta, ttr_max=ttr_max),
        parameters=LimdParameters(
            linear_increase=l,
            epsilon=epsilon,
            multiplicative_decrease=m,
            fallback_decrease=fallback,
            cold_reset_after=cold_reset_after,
        ),
        detector=make_detector(detection_mode, delta),
    )


class TestInitialisation:
    def test_initial_ttr_is_ttr_min(self):
        policy = make_policy()
        assert policy.first_ttr() == DELTA
        assert policy.current_ttr == DELTA

    def test_default_bounds_follow_paper(self):
        policy = LimdPolicy(5.0)
        assert policy.bounds.ttr_min == 5.0
        assert policy.bounds.ttr_max == 300.0

    def test_ttr_min_above_delta_rejected(self):
        with pytest.raises(PolicyConfigurationError, match="ttr_min"):
            LimdPolicy(5.0, bounds=TTRBounds(ttr_min=6.0, ttr_max=100.0))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(PolicyConfigurationError):
            LimdParameters(linear_increase=0.0)
        with pytest.raises(PolicyConfigurationError):
            LimdParameters(linear_increase=1.0)
        with pytest.raises(PolicyConfigurationError):
            LimdParameters(epsilon=-0.1)
        with pytest.raises(PolicyConfigurationError):
            LimdParameters(multiplicative_decrease=1.0)
        with pytest.raises(PolicyConfigurationError):
            LimdParameters(fallback_decrease=0.0)
        with pytest.raises(PolicyConfigurationError):
            LimdParameters(cold_reset_after=0.0)


class TestCase1LinearIncrease:
    def test_unmodified_poll_grows_ttr_linearly(self):
        policy = make_policy(l=0.2)
        ttr = policy.next_ttr(*outcome(10.0, modified=False, last_modified=0.0))
        assert ttr == pytest.approx(DELTA * 1.2)
        assert policy.last_case == "case1"

    def test_repeated_growth_reaches_ttr_max(self):
        policy = make_policy(l=0.5, ttr_max=100.0)
        t = 0.0
        for _ in range(20):
            t += policy.current_ttr
            policy.next_ttr(*outcome(t, modified=False, last_modified=0.0))
        assert policy.current_ttr == 100.0

    def test_growth_is_compound(self):
        policy = make_policy(l=0.2, ttr_max=1e9)
        policy.next_ttr(*outcome(10.0, modified=False, last_modified=0.0))
        policy.next_ttr(*outcome(22.0, modified=False, last_modified=0.0))
        assert policy.current_ttr == pytest.approx(DELTA * 1.2 * 1.2)


class TestCase2MultiplicativeDecrease:
    def test_violation_shrinks_ttr_with_fixed_m(self):
        policy = make_policy(m=0.5, ttr_max=1000.0)
        # Grow first so the decrease is visible above the clamp.
        policy.next_ttr(*outcome(100.0, modified=False, last_modified=0.0))
        policy.next_ttr(*outcome(300.0, modified=False, last_modified=0.0))
        grown = policy.current_ttr
        # Violation: first unseen update 50s before the poll (> delta).
        ttr = policy.next_ttr(
            *outcome(600.0, modified=True, last_modified=590.0, first_unseen=550.0)
        )
        assert ttr == pytest.approx(max(grown * 0.5, DELTA))
        assert policy.last_case == "case2"

    def test_adaptive_m_uses_out_sync_ratio(self):
        policy = make_policy(m=None, ttr_max=10000.0)
        for t in (100.0, 300.0, 700.0, 1500.0):
            policy.next_ttr(*outcome(t, modified=False, last_modified=0.0))
        grown = policy.current_ttr
        # Out-of-sync = poll - first_unseen = 40 → m = 10/40 = 0.25.
        ttr = policy.next_ttr(
            *outcome(2000.0, modified=True, last_modified=1990.0, first_unseen=1960.0)
        )
        assert ttr == pytest.approx(max(grown * 0.25, DELTA))

    def test_adaptive_m_clamped_away_from_zero(self):
        policy = make_policy(m=None, ttr_max=1e6)
        for t in (100.0, 300.0, 700.0):
            policy.next_ttr(*outcome(t, modified=False, last_modified=0.0))
        grown = policy.current_ttr
        # Absurd out-of-sync → raw m would be ~1e-5; clamp to 0.01.
        ttr = policy.next_ttr(
            *outcome(1e6, modified=True, last_modified=1e6 - 1,
                    first_unseen=2000.0)
        )
        assert ttr == pytest.approx(max(grown * 0.01, DELTA))

    def test_successive_violations_decrease_to_ttr_min(self):
        policy = make_policy(m=0.5, ttr_max=1000.0)
        policy.next_ttr(*outcome(100.0, modified=False, last_modified=0.0))
        t = 200.0
        for _ in range(10):
            policy.next_ttr(
                *outcome(t, modified=True, last_modified=t - 1,
                        first_unseen=t - 50.0)
            )
            t += 100.0
        assert policy.current_ttr == DELTA

    def test_violation_via_stale_last_modified(self):
        """Figure 1(a): even without history, an old Last-Modified is a
        detectable violation."""
        policy = make_policy(m=0.5, detection_mode="last_modified_only")
        policy.next_ttr(*outcome(100.0, modified=False, last_modified=0.0))
        grown = policy.current_ttr
        ttr = policy.next_ttr(*outcome(200.0, modified=True, last_modified=150.0))
        assert ttr == pytest.approx(max(grown * 0.5, DELTA))
        assert policy.last_case == "case2"


class TestCase3FineTuning:
    def test_modified_without_violation_grows_by_epsilon(self):
        policy = make_policy(epsilon=0.02)
        # Update 5s before poll (within delta), first unseen equally recent.
        ttr = policy.next_ttr(
            *outcome(20.0, modified=True, last_modified=15.0, first_unseen=15.0)
        )
        assert ttr == pytest.approx(DELTA * 1.02)
        assert policy.last_case == "case3"

    def test_zero_epsilon_keeps_ttr_unchanged(self):
        policy = make_policy(epsilon=0.0)
        ttr = policy.next_ttr(
            *outcome(20.0, modified=True, last_modified=15.0, first_unseen=15.0)
        )
        assert ttr == DELTA


class TestCase4ColdRestart:
    def test_update_after_long_silence_resets_to_ttr_min(self):
        policy = make_policy(cold_reset_after=100.0, l=0.5, ttr_max=500.0)
        # First modified poll records the modification baseline.
        policy.next_ttr(
            *outcome(10.0, modified=True, last_modified=8.0, first_unseen=8.0)
        )
        # Grow the TTR during a quiet stretch.
        t = 10.0
        for _ in range(10):
            t += policy.current_ttr
            policy.next_ttr(*outcome(t, modified=False, last_modified=8.0))
        assert policy.current_ttr > DELTA
        # An update lands after >100s of silence → Case 4.
        ttr = policy.next_ttr(
            *outcome(t + 50.0, modified=True, last_modified=t + 40.0,
                    first_unseen=t + 40.0)
        )
        assert ttr == DELTA
        assert policy.last_case == "case4"

    def test_disabled_by_default(self):
        policy = make_policy(l=0.5, ttr_max=500.0)
        policy.next_ttr(
            *outcome(10.0, modified=True, last_modified=8.0, first_unseen=8.0)
        )
        t = 10.0
        for _ in range(10):
            t += policy.current_ttr
            policy.next_ttr(*outcome(t, modified=False, last_modified=8.0))
        policy.next_ttr(
            *outcome(t + 50.0, modified=True, last_modified=t + 45.0,
                    first_unseen=t + 45.0)
        )
        # Without cold_reset_after the poll is judged as Case 2 or 3,
        # never a hard reset.
        assert policy.last_case in ("case2", "case3")

    def test_short_silence_is_not_cold(self):
        policy = make_policy(cold_reset_after=1000.0)
        policy.next_ttr(
            *outcome(10.0, modified=True, last_modified=8.0, first_unseen=8.0)
        )
        policy.next_ttr(
            *outcome(30.0, modified=True, last_modified=25.0, first_unseen=25.0)
        )
        assert policy.last_case != "case4"


class TestClamping:
    def test_ttr_never_exceeds_ttr_max(self):
        policy = make_policy(l=0.9, ttr_max=50.0)
        t = 0.0
        for _ in range(30):
            t += 100.0
            policy.next_ttr(*outcome(t, modified=False, last_modified=0.0))
            assert policy.current_ttr <= 50.0

    def test_ttr_never_drops_below_ttr_min(self):
        policy = make_policy(m=0.01)
        t = 0.0
        for _ in range(10):
            t += 100.0
            policy.next_ttr(
                *outcome(t, modified=True, last_modified=t - 1,
                        first_unseen=t - 90.0)
            )
            assert policy.current_ttr >= DELTA


class TestFactory:
    def test_factory_produces_independent_instances(self):
        factory = limd_policy_factory(DELTA)
        p1 = factory(ObjectId("a"))
        p2 = factory(ObjectId("b"))
        p1.next_ttr(*outcome(20.0, modified=False, last_modified=0.0))
        assert p1.current_ttr != p2.current_ttr

    def test_factory_default_ttr_max_is_60_delta(self):
        factory = limd_policy_factory(2.0)
        policy = factory(ObjectId("a"))
        assert policy.bounds.ttr_max == 120.0

    def test_factory_detection_mode(self):
        factory = limd_policy_factory(DELTA, detection_mode="inferred")
        policy = factory(ObjectId("a"))
        assert policy.detector.mode == "inferred"
