"""Property-based tests for the workload generators.

The calibration promises (exact counts, exact ranges, spacing, window
containment) must hold for *any* admissible spec and seed, not just the
Table 2/3 presets — these are the invariants the whole evaluation's
workload credibility rests on.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.group import group_interval_spread
from repro.traces.news import (
    MIN_UPDATE_SPACING,
    NewsTraceGenerator,
    NewsTraceSpec,
)
from repro.traces.stocks import (
    MIN_TICK_SPACING,
    StockTraceGenerator,
    StockTraceSpec,
)

news_specs = st.builds(
    NewsTraceSpec,
    name=st.just("prop"),
    start_hour_of_day=st.floats(min_value=0.0, max_value=23.99),
    duration=st.floats(min_value=3600.0, max_value=5 * 86400.0),
    update_count=st.integers(min_value=1, max_value=400),
    burstiness=st.floats(min_value=0.0, max_value=0.9),
)

stock_specs = st.builds(
    StockTraceSpec,
    name=st.just("prop"),
    duration=st.floats(min_value=600.0, max_value=6 * 3600.0),
    tick_count=st.integers(min_value=2, max_value=600),
    min_value=st.floats(min_value=1.0, max_value=100.0),
    max_value=st.floats(min_value=150.0, max_value=500.0),
    mean_reversion=st.floats(min_value=0.0, max_value=0.3),
    volatility_clustering=st.floats(min_value=0.0, max_value=0.9),
)


class TestNewsGeneratorProperties:
    @given(news_specs, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_exact_count_spacing_window(self, spec, seed):
        trace = NewsTraceGenerator(random.Random(seed)).generate(spec)
        assert trace.update_count == spec.update_count
        times = trace.times
        assert all(0.0 <= t < spec.duration for t in times)
        for a, b in zip(times, times[1:]):
            assert b - a >= MIN_UPDATE_SPACING - 1e-9

    @given(news_specs, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_same_seed_same_trace(self, spec, seed):
        t1 = NewsTraceGenerator(random.Random(seed)).generate(spec)
        t2 = NewsTraceGenerator(random.Random(seed)).generate(spec)
        assert t1.times == t2.times


class TestStockGeneratorProperties:
    @given(stock_specs, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_exact_count_range_window(self, spec, seed):
        trace = StockTraceGenerator(random.Random(seed)).generate(spec)
        assert trace.update_count == spec.tick_count
        values = trace.values
        assert min(values) == pytest_approx(spec.min_value)
        assert max(values) == pytest_approx(spec.max_value)
        times = trace.times
        assert all(0.0 <= t < spec.duration for t in times)
        for a, b in zip(times, times[1:]):
            assert b - a >= MIN_TICK_SPACING - 1e-9


def pytest_approx(expected, rel=1e-9, abs_tol=1e-9):
    import pytest

    return pytest.approx(expected, rel=rel, abs=abs_tol)


class TestGroupSpreadProperties:
    intervals = st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        ).map(lambda p: (min(p), max(p) + 1.0)),
        min_size=1,
        max_size=8,
    )

    @given(intervals)
    @settings(max_examples=100)
    def test_spread_zero_iff_common_point_exists(self, intervals):
        spread = group_interval_spread(intervals)
        assert spread >= 0.0
        # Brute force: a common point exists iff max(start) <= min(end).
        has_common = max(s for s, _ in intervals) <= min(e for _, e in intervals)
        assert (spread == 0.0) == has_common

    @given(intervals)
    @settings(max_examples=100)
    def test_spread_monotone_under_interval_widening(self, intervals):
        spread = group_interval_spread(intervals)
        widened = [(s - 1.0, e + 1.0) for s, e in intervals]
        assert group_interval_spread(widened) <= spread

    @given(intervals)
    @settings(max_examples=50)
    def test_subset_never_increases_spread(self, intervals):
        spread = group_interval_spread(intervals)
        if len(intervals) > 1:
            assert group_interval_spread(intervals[:-1]) <= spread
