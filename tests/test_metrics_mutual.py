"""Unit tests for mutual-consistency metrics (Eqs. 4-5 and the
operational poll-synchrony measure)."""

from __future__ import annotations

import math
import os
import sys
from collections import Counter

import pytest

import repro

from repro.core.types import ObjectId
from repro.metrics.group import group_interval_spread, group_temporal_fidelity
from repro.metrics.mutual import (
    mutual_poll_synchrony_fidelity,
    mutual_value_fidelity,
    validity_interval,
)
from repro.traces.model import trace_from_ticks, trace_from_times

A, B = ObjectId("a"), ObjectId("b")


def t_trace(oid, times, end=1000.0):
    return trace_from_times(ObjectId(oid), times, start_time=0.0, end_time=end)


# A pair is a group of two: the pair cases below run the n-object
# metric with two members.
def interval_gap(a, b):
    return group_interval_spread([a, b])


# Eq. 4 at an instant: the cached versions' validity intervals fit
# within a window of width δ — the check group_temporal_fidelity makes
# after every poll.
def mutually_consistent_at(trace_a, trace_b, origin_a, origin_b, delta):
    intervals = [
        validity_interval(trace_a, origin_a),
        validity_interval(trace_b, origin_b),
    ]
    return group_interval_spread(intervals) <= delta


def mutual_temporal_fidelity(trace_a, trace_b, fetches_a, fetches_b, delta):
    return group_temporal_fidelity(
        {A: trace_a, B: trace_b}, {A: fetches_a, B: fetches_b}, delta
    )


class TestValidityInterval:
    def test_interval_ends_at_next_update(self):
        trace = t_trace("a", [10.0, 50.0, 90.0])
        assert validity_interval(trace, 10.0) == (10.0, 50.0)

    def test_current_version_is_open_ended(self):
        trace = t_trace("a", [10.0, 50.0])
        start, end = validity_interval(trace, 50.0)
        assert start == 50.0
        assert math.isinf(end)


class TestIntervalGap:
    def test_overlapping_intervals_have_zero_gap(self):
        assert interval_gap((0.0, 10.0), (5.0, 15.0)) == 0.0

    def test_touching_intervals_have_zero_gap(self):
        assert interval_gap((0.0, 10.0), (10.0, 20.0)) == 0.0

    def test_disjoint_intervals_gap(self):
        assert interval_gap((0.0, 10.0), (25.0, 30.0)) == 15.0
        assert interval_gap((25.0, 30.0), (0.0, 10.0)) == 15.0

    def test_open_ended_interval(self):
        assert interval_gap((0.0, math.inf), (50.0, 60.0)) == 0.0


class TestMutuallyConsistentAt:
    def test_delta_zero_requires_coexistence(self):
        """δ=0: versions must have simultaneously existed (paper §2)."""
        trace_a = t_trace("a", [10.0, 50.0])
        trace_b = t_trace("b", [30.0, 70.0])
        # a@10 valid [10,50); b@30 valid [30,70): they overlap.
        assert mutually_consistent_at(trace_a, trace_b, 10.0, 30.0, 0.0)
        # a@10 valid [10,50); b@70 valid [70,inf): no overlap (gap 20).
        assert not mutually_consistent_at(trace_a, trace_b, 10.0, 70.0, 0.0)

    def test_delta_allows_bounded_gap(self):
        trace_a = t_trace("a", [10.0, 50.0])
        trace_b = t_trace("b", [70.0])
        assert mutually_consistent_at(trace_a, trace_b, 10.0, 70.0, 20.0)
        assert not mutually_consistent_at(trace_a, trace_b, 10.0, 70.0, 19.0)


class TestMutualTemporalFidelity:
    def test_synchronized_polls_are_consistent(self):
        trace_a = t_trace("a", [25.0], end=100.0)
        trace_b = t_trace("b", [25.0], end=100.0)
        fetches_a = [(0.0, 0.0), (30.0, 25.0), (60.0, 25.0)]
        fetches_b = [(0.0, 0.0), (30.0, 25.0), (60.0, 25.0)]
        report = mutual_temporal_fidelity(
            trace_a, trace_b, fetches_a, fetches_b, delta=0.0
        )
        assert report.violations == 0
        assert report.out_sync_time == 0.0

    def test_one_side_stale_is_violation(self):
        # a updates at 25 and is refreshed; b never refreshed after its
        # update at 20 → b's cached version (origin 0) stopped being
        # valid at 20, a's new version starts at 25: gap 5 > delta 2.
        trace_a = t_trace("a", [25.0], end=100.0)
        trace_b = t_trace("b", [20.0], end=100.0)
        fetches_a = [(0.0, 0.0), (30.0, 25.0)]
        fetches_b = [(0.0, 0.0)]
        report = mutual_temporal_fidelity(
            trace_a, trace_b, fetches_a, fetches_b, delta=2.0
        )
        assert report.violations == 1
        # Inconsistent from a's refresh at t=30 to the window end.
        assert report.out_sync_time == pytest.approx(70.0)

    def test_same_instant_fix_counts_no_violation(self):
        """A triggered poll at the same instant as the detection repairs
        consistency before it is observable — no violation."""
        trace_a = t_trace("a", [25.0], end=100.0)
        trace_b = t_trace("b", [20.0], end=100.0)
        fetches_a = [(0.0, 0.0), (30.0, 25.0)]
        fetches_b = [(0.0, 0.0), (30.0, 20.0)]  # triggered at same time
        report = mutual_temporal_fidelity(
            trace_a, trace_b, fetches_a, fetches_b, delta=2.0
        )
        assert report.violations == 0
        assert report.out_sync_time == 0.0

    def test_tolerant_delta_forgives(self):
        trace_a = t_trace("a", [25.0], end=100.0)
        trace_b = t_trace("b", [20.0], end=100.0)
        fetches_a = [(0.0, 0.0), (30.0, 25.0)]
        fetches_b = [(0.0, 0.0)]
        report = mutual_temporal_fidelity(
            trace_a, trace_b, fetches_a, fetches_b, delta=5.0
        )
        assert report.violations == 0

    def test_polls_counted_across_both_objects(self):
        trace_a = t_trace("a", [], end=100.0)
        trace_b = t_trace("b", [], end=100.0)
        report = mutual_temporal_fidelity(
            trace_a, trace_b, [(0.0, 0.0), (50.0, 0.0)], [(0.0, 0.0)], delta=1.0
        )
        assert report.polls == 3

    def test_negative_delta_rejected(self):
        trace_a = t_trace("a", [])
        trace_b = t_trace("b", [])
        with pytest.raises(ValueError):
            mutual_temporal_fidelity(trace_a, trace_b, [], [], delta=-1.0)


class TestPollSynchronyFidelity:
    def test_synchronized_detection_is_clean(self):
        fetches_a = [(0.0, False), (30.0, True)]
        fetches_b = [(0.0, False), (31.0, False)]
        report = mutual_poll_synchrony_fidelity(fetches_a, fetches_b, delta=2.0)
        assert report.violations == 0

    def test_detection_without_nearby_partner_poll_is_violation(self):
        fetches_a = [(0.0, False), (30.0, True)]
        fetches_b = [(0.0, False), (50.0, False)]
        report = mutual_poll_synchrony_fidelity(fetches_a, fetches_b, delta=2.0)
        assert report.violations == 1

    def test_unmodified_polls_never_violate(self):
        fetches_a = [(0.0, False), (30.0, False)]
        fetches_b = [(0.0, False)]
        report = mutual_poll_synchrony_fidelity(fetches_a, fetches_b, delta=0.0)
        assert report.violations == 0

    def test_future_partner_poll_within_delta_is_clean(self):
        fetches_a = [(30.0, True)]
        fetches_b = [(31.5, False)]
        report = mutual_poll_synchrony_fidelity(fetches_a, fetches_b, delta=2.0)
        assert report.violations == 0

    def test_polls_total_is_both_sides(self):
        report = mutual_poll_synchrony_fidelity(
            [(0.0, False)], [(1.0, False), (2.0, False)], delta=1.0
        )
        assert report.polls == 3

    def test_both_sides_checked(self):
        fetches_a = [(0.0, False)]
        fetches_b = [(30.0, True)]
        report = mutual_poll_synchrony_fidelity(fetches_a, fetches_b, delta=2.0)
        assert report.violations == 1


class TestMutualValueFidelity:
    def _traces(self):
        # a: steps 0→1→2 at 10/20; b constant 10.
        trace_a = trace_from_ticks(
            ObjectId("a"), [(10.0, 0.0), (20.0, 1.0), (30.0, 2.0)],
            start_time=0.0, end_time=100.0,
        )
        trace_b = trace_from_ticks(
            ObjectId("b"), [(10.0, 10.0)], start_time=0.0, end_time=100.0
        )
        return trace_a, trace_b

    def test_fresh_caches_are_consistent(self):
        trace_a, trace_b = self._traces()
        fetches_a = [(10.0, 0.0), (20.0, 1.0), (30.0, 2.0)]
        fetches_b = [(10.0, 10.0)]
        report = mutual_value_fidelity(
            trace_a, trace_b, fetches_a, fetches_b, delta=0.5
        )
        assert report.violations == 0
        assert report.out_sync_time == 0.0

    def test_stale_cache_violates(self):
        trace_a, trace_b = self._traces()
        # a cached at 10 (value 0) and never refreshed; by t=30 the true
        # difference moved by 2 >= delta 1.5.
        fetches_a = [(10.0, 0.0)]
        fetches_b = [(10.0, 10.0)]
        report = mutual_value_fidelity(
            trace_a, trace_b, fetches_a, fetches_b, delta=1.5
        )
        assert report.out_sync_time == pytest.approx(70.0)  # t=30..100

    def test_violation_charged_to_segment_poll(self):
        trace_a, trace_b = self._traces()
        fetches_a = [(10.0, 0.0), (50.0, 2.0)]
        fetches_b = [(10.0, 10.0)]
        report = mutual_value_fidelity(
            trace_a, trace_b, fetches_a, fetches_b, delta=1.5
        )
        # Segment starting at the t=10 group violates (from t=30).
        assert report.violations == 1

    def test_custom_f(self):
        trace_a, trace_b = self._traces()
        fetches_a = [(10.0, 0.0)]
        fetches_b = [(10.0, 10.0)]
        # f = sum; drift of a alone moves the sum by 2 by t=30.
        report = mutual_value_fidelity(
            trace_a, trace_b, fetches_a, fetches_b, delta=1.5,
            f=lambda x, y: x + y,
        )
        assert report.out_sync_time == pytest.approx(70.0)

    def test_invalid_delta_rejected(self):
        trace_a, trace_b = self._traces()
        with pytest.raises(ValueError):
            mutual_value_fidelity(trace_a, trace_b, [], [], delta=0.0)

    def test_temporal_trace_rejected(self):
        """A valueless trace cannot be scored for Mv, not even as 1.0."""
        trace_a, _ = self._traces()
        trace_b = t_trace("b", [10.0, 40.0], end=100.0)
        with pytest.raises(ValueError, match="'b' has no values"):
            mutual_value_fidelity(
                trace_a, trace_b, [(10.0, 0.0)], [(10.0, 0.0)], delta=1.0
            )


class TestMvScoringFrames:
    """The Python frames one Mv scoring enters, counted by ``sys.setprofile``.

    The scorer walks each trace's columns with a cursor, so with P polls
    per member and U ticks per trace it enters no ``UpdateTrace`` method
    and, beyond ``f`` itself, a constant number of frames: the scorer
    and the report it returns.  The window is given, since the default
    one reads each trace's window properties once.  Only frames whose
    code lives in the
    ``repro`` package or is ``f`` count, as in
    ``tests/test_proxy.py::TestPollFrames``.
    """

    POLLS = 200
    TICKS = 300

    def test_frames_are_f_calls_plus_a_constant(self):
        ticks_a = [(1.0 + 2.0 * i, float(i % 7)) for i in range(self.TICKS)]
        ticks_b = [(2.0 + 2.0 * i, float(i % 5)) for i in range(self.TICKS)]
        trace_a = trace_from_ticks(A, ticks_a, start_time=0.0, end_time=700.0)
        trace_b = trace_from_ticks(B, ticks_b, start_time=0.0, end_time=700.0)
        fetches_a = [(3.0 * i, 0.0) for i in range(self.POLLS)]
        fetches_b = [(3.0 * i + 1.0, 0.0) for i in range(self.POLLS)]

        def f(x, y):
            return x - y

        frames = Counter()
        package = os.path.dirname(repro.__file__) + os.sep

        def profiler(frame, event, arg):
            if event == "call" and (
                frame.f_code.co_filename.startswith(package)
                or frame.f_code is f.__code__
            ):
                frames[frame.f_code.co_qualname] += 1

        sys.setprofile(profiler)
        try:
            report = mutual_value_fidelity(
                trace_a, trace_b, fetches_a, fetches_b, delta=2.0, f=f,
                start=0.0, end=700.0,
            )
        finally:
            sys.setprofile(None)
        assert report.polls == 2 * self.POLLS
        assert not [name for name in frames if name.startswith("UpdateTrace.")]
        f_calls = frames.pop(f.__qualname__)
        assert f_calls >= 2 * self.POLLS
        assert sum(frames.values()) <= 4, frames
