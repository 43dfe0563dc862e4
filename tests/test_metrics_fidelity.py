"""Unit tests for individual-consistency fidelity metrics (Eqs. 13-14)."""

from __future__ import annotations

import bisect

import pytest

from repro.core.types import ObjectId
from repro.metrics.fidelity import FidelityReport, temporal_fidelity
from repro.traces.model import trace_from_times


def temporal_trace(times, end=1000.0):
    return trace_from_times(ObjectId("x"), times, start_time=0.0, end_time=end)


def origin_fetches(trace, polls):
    """What zero-latency polls of the origin obtain: (p, latest update ≤ p)."""
    held = (bisect.bisect_right(trace.times, poll) for poll in polls)
    return [
        (p, trace.times[i - 1] if i else trace.start_time)
        for p, i in zip(polls, held)
    ]


class TestFidelityReport:
    def test_fidelity_formulas(self):
        report = FidelityReport(
            polls=10, violations=2, out_sync_time=50.0, duration=1000.0
        )
        assert report.fidelity_by_violations == pytest.approx(0.8)
        assert report.fidelity_by_time == pytest.approx(0.95)

    def test_zero_polls_defines_fidelity_one(self):
        report = FidelityReport(polls=0, violations=0, out_sync_time=0.0, duration=10.0)
        assert report.fidelity_by_violations == 1.0

    def test_zero_duration_defines_fidelity_one(self):
        report = FidelityReport(polls=1, violations=0, out_sync_time=0.0, duration=0.0)
        assert report.fidelity_by_time == 1.0


class TestTemporalViolations:
    def test_no_updates_no_violations(self):
        trace = temporal_trace([])
        fetches = origin_fetches(trace, [0.0, 100.0, 200.0])
        report = temporal_fidelity(trace, fetches, delta=10.0)
        assert report.violations == 0
        assert report.out_sync_time == 0.0
        assert report.fidelity_by_violations == 1.0

    def test_update_caught_within_delta_is_clean(self):
        trace = temporal_trace([95.0])
        fetches = origin_fetches(trace, [0.0, 100.0])
        report = temporal_fidelity(trace, fetches, delta=10.0)
        assert report.violations == 0

    def test_figure_1a_pattern_counts_one_violation(self):
        # Update at 50, next poll at 100: 50 s stale > delta 10.
        trace = temporal_trace([50.0])
        fetches = origin_fetches(trace, [0.0, 100.0])
        report = temporal_fidelity(trace, fetches, delta=10.0)
        assert report.violations == 1

    def test_figure_1b_pattern_counts_violation(self):
        # First unseen update at 50 even though the latest (95) is fresh.
        trace = temporal_trace([50.0, 95.0])
        fetches = origin_fetches(trace, [0.0, 100.0])
        report = temporal_fidelity(trace, fetches, delta=10.0)
        assert report.violations == 1

    def test_boundary_exactly_delta_is_clean(self):
        trace = temporal_trace([90.0])
        fetches = origin_fetches(trace, [0.0, 100.0])
        report = temporal_fidelity(trace, fetches, delta=10.0)
        assert report.violations == 0

    def test_each_bad_interval_counts_once(self):
        trace = temporal_trace([50.0, 150.0, 250.0])
        fetches = origin_fetches(trace, [0.0, 100.0, 200.0, 300.0])
        report = temporal_fidelity(trace, fetches, delta=10.0)
        assert report.violations == 3
        assert report.polls == 4

    def test_baseline_delta_polling_has_perfect_fidelity(self):
        """Polling every Δ can never violate the Δ bound (the paper's
        baseline 'by definition ... provides perfect fidelity')."""
        trace = temporal_trace([33.0, 71.0, 155.0, 290.0, 555.0], end=1000.0)
        delta = 25.0
        polls = [float(t) for t in range(0, 1001, 25)]
        report = temporal_fidelity(trace, origin_fetches(trace, polls), delta=delta)
        assert report.violations == 0
        assert report.out_sync_time == 0.0

    def test_descending_fetches_rejected(self):
        trace = temporal_trace([50.0])
        with pytest.raises(ValueError):
            temporal_fidelity(trace, [(100.0, 50.0), (0.0, 0.0)], delta=10.0)

    def test_invalid_delta_rejected(self):
        trace = temporal_trace([50.0])
        with pytest.raises(ValueError):
            temporal_fidelity(trace, origin_fetches(trace, [0.0]), delta=0.0)


class TestTemporalOutSyncTime:
    def test_out_sync_interval_measured(self):
        # Update at 50; poll at 100.  Stale from 60 (=50+delta) to 100.
        trace = temporal_trace([50.0], end=100.0)
        fetches = origin_fetches(trace, [0.0, 100.0])
        report = temporal_fidelity(trace, fetches, delta=10.0)
        assert report.out_sync_time == pytest.approx(40.0)
        assert report.fidelity_by_time == pytest.approx(1 - 40.0 / 100.0)

    def test_staleness_after_last_poll_counts(self):
        trace = temporal_trace([50.0], end=200.0)
        report = temporal_fidelity(trace, origin_fetches(trace, [0.0]), delta=10.0)
        # Stale from 60 to 200.
        assert report.out_sync_time == pytest.approx(140.0)

    def test_no_staleness_when_refreshed_promptly(self):
        trace = temporal_trace([50.0], end=100.0)
        fetches = origin_fetches(trace, [0.0, 55.0])
        report = temporal_fidelity(trace, fetches, delta=10.0)
        assert report.out_sync_time == 0.0

    def test_multiple_stale_windows_accumulate(self):
        trace = temporal_trace([10.0, 110.0], end=200.0)
        fetches = origin_fetches(trace, [0.0, 100.0, 200.0])
        report = temporal_fidelity(trace, fetches, delta=10.0)
        # Window 1: stale 20→100 = 80.  Window 2: stale 120→200 = 80.
        assert report.out_sync_time == pytest.approx(160.0)

    def test_never_polled_counts_from_first_update(self):
        trace = temporal_trace([100.0], end=300.0)
        report = temporal_fidelity(trace, origin_fetches(trace, []), delta=50.0)
        assert report.out_sync_time == pytest.approx(150.0)

    def test_window_clipping(self):
        trace = temporal_trace([50.0], end=1000.0)
        fetches = origin_fetches(trace, [0.0])
        report = temporal_fidelity(
            trace, fetches, delta=10.0, start=0.0, end=100.0
        )
        assert report.out_sync_time == pytest.approx(40.0)
        assert report.duration == 100.0


class TestTemporalFidelityFromSnapshots:
    """Scoring from the version each fetch obtained, not its poll time."""

    def test_fresh_snapshots_have_no_out_sync(self):
        trace = temporal_trace([100.0], end=200.0)
        # Fetch at 150 already carries the version modified at 100.
        report = temporal_fidelity(trace, [(0.0, 0.0), (150.0, 100.0)], 60.0)
        # Segment [0, 150) holds the t=0 version; update at 100 makes it
        # stale from 160 — but the segment ends at 150: no out-sync.
        assert report.out_sync_time == pytest.approx(0.0)
        assert report.fidelity_by_time == 1.0

    def test_stale_snapshot_accrues_out_sync(self):
        trace = temporal_trace([100.0], end=400.0)
        # One fetch at t=0; the copy stays version 0 forever.
        report = temporal_fidelity(trace, [(0.0, 0.0)], 60.0)
        # Out of sync from 100+60=160 to 400.
        assert report.out_sync_time == pytest.approx(240.0)
        # No later poll closes the stale segment (Eq. 13).
        assert report.violations == 0

    def test_stale_parent_response_counted(self):
        trace = temporal_trace([100.0], end=400.0)
        # A poll at t=200 that returned a STALE copy (last_modified=0,
        # as a behind parent cache would serve): out of sync to the end.
        report = temporal_fidelity(trace, [(0.0, 0.0), (200.0, 0.0)], 60.0)
        assert report.out_sync_time == pytest.approx(240.0)
        assert report.violations == 1

    def test_window_clipping(self):
        trace = temporal_trace([100.0], end=1000.0)
        report = temporal_fidelity(
            trace, [(0.0, 0.0)], 60.0, start=0.0, end=300.0
        )
        assert report.out_sync_time == pytest.approx(140.0)
        assert report.duration == pytest.approx(300.0)

    def test_empty_log_reports_no_polls(self):
        trace = temporal_trace([100.0], end=400.0)
        report = temporal_fidelity(trace, [], 60.0)
        assert report.polls == 0
        # Charged from the first update + Δ, as for a never-polled object.
        assert report.out_sync_time == pytest.approx(240.0)

    def test_rejects_nonpositive_delta(self):
        trace = temporal_trace([], end=10.0)
        with pytest.raises(ValueError):
            temporal_fidelity(trace, [], 0.0)
