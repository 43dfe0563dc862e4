"""Property-based tests (hypothesis) on core invariants.

These cover the data structures and algorithms whose correctness the
whole evaluation rests on: the kernel's event ordering, trace queries,
LIMD bound preservation, the fidelity metrics' range, and the interval
arithmetic behind mutual-consistency evaluation.
"""

from __future__ import annotations

import bisect

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.consistency.detection import make_detector
from repro.consistency.limd import LimdParameters, LimdPolicy
from repro.core.types import ObjectId, ObjectSnapshot, TTRBounds
from repro.metrics.fidelity import temporal_fidelity
from repro.metrics.group import group_interval_spread
from repro.sim.kernel import Kernel
from repro.traces.model import trace_from_times

def lagged_fetches(trace, polls, lag):
    """Ascending fetches, each obtaining the version current ``lag`` earlier."""
    fetches = []
    for poll in sorted(polls):
        held = bisect.bisect_right(trace.times, poll - lag)
        fetches.append((poll, trace.times[held - 1] if held else trace.start_time))
    return fetches


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
times_strategy = st.lists(
    st.floats(min_value=0.1, max_value=1e5, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=40,
    unique=True,
)

poll_times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.1e5, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
    unique=True,
)


class TestKernelProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50)
    def test_events_always_fire_in_nondecreasing_time_order(self, schedule):
        kernel = Kernel()
        fired = []
        for when in schedule:
            kernel.schedule_at(when, lambda k: fired.append(k.now()))
        kernel.run()
        assert fired == sorted(fired)
        assert len(fired) == len(schedule)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_run_until_never_processes_later_events(self, schedule, until):
        kernel = Kernel()
        fired = []
        for when in schedule:
            kernel.schedule_at(when, lambda k, w=when: fired.append(w))
        kernel.run(until=until)
        assert all(t <= until for t in fired)
        assert kernel.now() >= until


class TestTraceProperties:
    @given(times_strategy)
    @settings(max_examples=100)
    def test_versions_sequential_and_times_sorted(self, times):
        trace = trace_from_times(ObjectId("x"), times)
        # Version i is index i: one column entry per update, in order.
        assert trace.times == sorted(times)
        assert len(trace.values) == len(times)

    @given(times_strategy, st.floats(min_value=0.0, max_value=1.2e5))
    @settings(max_examples=100)
    def test_latest_at_and_next_after_partition_the_timeline(self, times, t):
        trace = trace_from_times(ObjectId("x"), times)
        # The latest update at t is index (version) held - 1, found by a
        # bisect of our own; next_after(t) must be the one right after it.
        held = bisect.bisect_right(trace.times, t)
        nxt = trace.next_after(t)
        if held:
            assert trace.times[held - 1] <= t
        if nxt is None:
            assert held == len(times)
        else:
            assert nxt > t
            assert nxt == trace.times[held]


class TestLimdProperties:
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.floats(min_value=0.5, max_value=500.0, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=100)
    def test_ttr_always_within_bounds(self, steps):
        """No outcome sequence can push the TTR outside [min, max]."""
        delta = 10.0
        bounds = TTRBounds(ttr_min=delta, ttr_max=300.0)
        policy = LimdPolicy(
            delta,
            bounds=bounds,
            parameters=LimdParameters(),
            detector=make_detector("history", delta),
        )
        t = 0.0
        version = 0
        last_modified = 0.0
        for modified, gap in steps:
            t += gap
            if modified:
                version += 1
                last_modified = max(last_modified + 1e-6, t - gap / 2.0)
            outcome = (
                t,
                modified,
                ObjectSnapshot(
                    ObjectId("x"), version=version, last_modified=last_modified
                ),
                last_modified if modified else None,
                None,
            )
            ttr = policy.next_ttr(*outcome)
            assert bounds.ttr_min <= ttr <= bounds.ttr_max

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=30)
    def test_case1_growth_is_monotone_in_l(self, l):
        delta = 10.0
        policy = LimdPolicy(
            delta,
            parameters=LimdParameters(linear_increase=l),
        )
        outcome = (
            20.0,
            False,
            ObjectSnapshot(ObjectId("x"), version=0, last_modified=0.0),
            None,
            None,
        )
        ttr = policy.next_ttr(*outcome)
        assert ttr >= delta


class TestFidelityProperties:
    @given(times_strategy, poll_times_strategy,
           st.floats(min_value=0.1, max_value=1e4),
           st.floats(min_value=0.0, max_value=1e3))
    @settings(max_examples=100)
    def test_temporal_fidelity_in_unit_range(self, times, polls, delta, lag):
        trace = trace_from_times(
            ObjectId("x"), times, end_time=1.2e5
        )
        report = temporal_fidelity(trace, lagged_fetches(trace, polls, lag), delta)
        assert 0.0 <= report.fidelity_by_violations <= 1.0
        assert 0.0 <= report.fidelity_by_time <= 1.0
        assert report.violations <= report.polls
        assert report.out_sync_time <= report.duration + 1e-6

    @given(times_strategy, poll_times_strategy,
           st.floats(min_value=0.1, max_value=1e4),
           st.floats(min_value=1.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=1e3))
    @settings(max_examples=50)
    def test_larger_delta_never_more_violations(
        self, times, polls, delta, factor, lag
    ):
        trace = trace_from_times(ObjectId("x"), times, end_time=1.2e5)
        fetches = lagged_fetches(trace, polls, lag)
        tight = temporal_fidelity(trace, fetches, delta)
        loose = temporal_fidelity(trace, fetches, delta * factor)
        assert loose.violations <= tight.violations
        assert loose.out_sync_time <= tight.out_sync_time + 1e-9


def interval_gap(a, b):
    """Eq. 4's pair gap: the group spread of two intervals."""
    return group_interval_spread([a, b])


class TestIntervalGapProperties:
    interval = st.tuples(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    ).map(lambda p: (min(p), max(p)))

    @given(interval, interval)
    @settings(max_examples=100)
    def test_gap_is_symmetric_and_non_negative(self, a, b):
        assert interval_gap(a, b) == interval_gap(b, a)
        assert interval_gap(a, b) >= 0.0

    @given(interval)
    @settings(max_examples=50)
    def test_gap_with_self_is_zero(self, a):
        assume(a[1] > a[0])
        assert interval_gap(a, a) == 0.0

    @given(interval, interval)
    @settings(max_examples=100)
    def test_gap_zero_iff_touch_or_overlap(self, a, b):
        gap = interval_gap(a, b)
        overlaps = max(a[0], b[0]) <= min(a[1], b[1])
        assert (gap == 0.0) == overlaps
