"""Unit tests for temporal violation detection modes (Section 5.1)."""

from __future__ import annotations

import pytest

from repro.consistency.detection import (
    HistoryViolationDetector,
    InferredViolationDetector,
    LastModifiedViolationDetector,
    make_detector,
)
from repro.core.types import ObjectId, ObjectSnapshot

DELTA = 10.0


def outcome(poll_time, *, modified, last_modified, first_unseen=None):
    """A poll's fields, in ``judge``'s argument order."""
    return (
        poll_time,
        modified,
        ObjectSnapshot(ObjectId("x"), version=1, last_modified=last_modified),
        first_unseen,
        None,
    )


class TestHistoryDetector:
    def test_unmodified_never_violates(self):
        detector = HistoryViolationDetector(DELTA)
        judgement = detector.judge(*outcome(100.0, modified=False, last_modified=0.0))
        assert not judgement.violated

    def test_figure_1a_violation(self):
        """Single update, older than delta at the poll."""
        detector = HistoryViolationDetector(DELTA)
        judgement = detector.judge(
            *outcome(100.0, modified=True, last_modified=80.0, first_unseen=80.0)
        )
        assert judgement.violated
        assert judgement.observed_out_sync == pytest.approx(20.0)

    def test_figure_1b_violation(self):
        """Latest update recent, but the FIRST unseen update is old."""
        detector = HistoryViolationDetector(DELTA)
        judgement = detector.judge(
            *outcome(100.0, modified=True, last_modified=95.0, first_unseen=50.0)
        )
        assert judgement.violated
        assert judgement.observed_out_sync == pytest.approx(50.0)

    def test_recent_first_update_is_clean(self):
        detector = HistoryViolationDetector(DELTA)
        judgement = detector.judge(
            *outcome(100.0, modified=True, last_modified=95.0, first_unseen=95.0)
        )
        assert not judgement.violated

    def test_boundary_exactly_delta_is_clean(self):
        """The paper's condition is 'larger than delta' (strict)."""
        detector = HistoryViolationDetector(DELTA)
        judgement = detector.judge(
            *outcome(100.0, modified=True, last_modified=90.0, first_unseen=90.0)
        )
        assert not judgement.violated

    def test_degrades_to_last_modified_without_history(self):
        detector = HistoryViolationDetector(DELTA)
        judgement = detector.judge(
            *outcome(100.0, modified=True, last_modified=80.0, first_unseen=None)
        )
        assert judgement.violated
        assert judgement.basis == "last-modified"


class TestLastModifiedDetector:
    def test_detects_stale_latest_update(self):
        detector = LastModifiedViolationDetector(DELTA)
        judgement = detector.judge(*outcome(100.0, modified=True, last_modified=85.0))
        assert judgement.violated

    def test_misses_figure_1b_case(self):
        """Without history the 1(b) pattern goes undetected — exactly
        the limitation the paper's Section 5.1 extension addresses."""
        detector = LastModifiedViolationDetector(DELTA)
        judgement = detector.judge(
            *outcome(100.0, modified=True, last_modified=95.0, first_unseen=50.0)
        )
        assert not judgement.violated


class TestInferredDetector:
    def _train(self, detector, *, gap, count=10, start=0.0):
        """Feed the detector polls showing updates every ``gap`` seconds."""
        t = start
        for i in range(count):
            t += gap
            detector.judge(*outcome(t, modified=True, last_modified=t))

    def test_certain_violation_still_detected(self):
        detector = InferredViolationDetector(DELTA)
        judgement = detector.judge(*outcome(100.0, modified=True, last_modified=85.0))
        assert judgement.violated

    def test_fast_object_long_interval_inferred_violation(self):
        """An object updating every 5s polled over a 100s interval has
        almost certainly violated a 10s bound even if the newest update
        is recent."""
        detector = InferredViolationDetector(DELTA, probability_threshold=0.5)
        self._train(detector, gap=5.0, count=20)
        t = detector.previous_poll_time
        judgement = detector.judge(
            *outcome(t + 100.0, modified=True, last_modified=t + 99.0)
        )
        assert judgement.violated
        assert judgement.basis.startswith("inferred")

    def test_short_interval_cannot_violate(self):
        detector = InferredViolationDetector(DELTA)
        self._train(detector, gap=5.0, count=5)
        t = detector.previous_poll_time
        judgement = detector.judge(
            *outcome(t + DELTA, modified=True, last_modified=t + DELTA - 1)
        )
        assert not judgement.violated

    def test_slow_object_not_flagged(self):
        """An object updating every ~500s, polled 30s apart with a
        recent update, is unlikely to have had an early unseen update."""
        detector = InferredViolationDetector(DELTA, probability_threshold=0.9)
        self._train(detector, gap=500.0, count=5)
        t = detector.previous_poll_time
        judgement = detector.judge(
            *outcome(t + 30.0, modified=True, last_modified=t + 29.0)
        )
        assert not judgement.violated

    def test_first_poll_has_no_interval(self):
        detector = InferredViolationDetector(DELTA)
        judgement = detector.judge(*outcome(100.0, modified=True, last_modified=95.0))
        assert not judgement.violated

    def test_rate_estimator_fed_from_modifications(self):
        detector = InferredViolationDetector(DELTA)
        self._train(detector, gap=7.0, count=10)
        assert detector.estimator.rate() == pytest.approx(1 / 7.0, rel=0.05)


class TestMakeDetector:
    @pytest.mark.parametrize(
        "mode,cls",
        [
            ("history", HistoryViolationDetector),
            ("last_modified_only", LastModifiedViolationDetector),
            ("inferred", InferredViolationDetector),
        ],
    )
    def test_modes(self, mode, cls):
        detector = make_detector(mode, DELTA)
        assert isinstance(detector, cls)
        assert detector.mode == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            make_detector("psychic", DELTA)

    def test_non_positive_delta_rejected(self):
        with pytest.raises(ValueError):
            make_detector("history", 0.0)
