"""Unit tests for the generic synthetic workload builders."""

from __future__ import annotations

import math

import pytest

from repro.core.types import ObjectId
from repro.traces.synthetic import (
    FollowerSpec,
    correlated_group_traces,
    poisson_trace,
    poisson_update_times,
)


class TestPoisson:
    def test_rate_roughly_matched(self, rng):
        times = poisson_update_times(rng, rate=0.1, end=100000.0)
        assert len(times) == pytest.approx(10000, rel=0.05)

    def test_times_inside_window_and_sorted(self, rng):
        times = poisson_update_times(rng, rate=0.5, start=100.0, end=200.0)
        assert all(100.0 < t < 200.0 for t in times)
        assert times == sorted(times)

    def test_invalid_window_rejected(self, rng):
        with pytest.raises(ValueError):
            poisson_update_times(rng, rate=1.0, start=10.0, end=10.0)

    @pytest.mark.parametrize("end", [math.nan, math.inf])
    def test_non_finite_end_rejected(self, rng, end):
        with pytest.raises(ValueError, match="end"):
            poisson_update_times(rng, rate=1.0, end=end)

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            poisson_update_times(rng, rate=0.0, end=10.0)

    def test_poisson_trace_wrapping(self, rng):
        trace = poisson_trace("obj", rng, rate=0.05, end=10000.0)
        assert trace.object_id == ObjectId("obj")
        assert trace.start_time == 0.0
        assert trace.end_time == 10000.0
        assert trace.metadata.source == "synthetic:poisson"


class TestCorrelatedGroup:
    def _build(self, rng, join=0.5, max_lag=30.0):
        followers = [
            FollowerSpec("img", join_probability=join, max_lag=max_lag),
            FollowerSpec("clip", join_probability=join / 2, max_lag=max_lag),
        ]
        return correlated_group_traces(
            "page", followers, rng, burst_rate=1 / 600.0, end=7 * 24 * 3600.0
        )

    def test_all_members_present(self, rng):
        traces = self._build(rng)
        assert set(traces) == {
            ObjectId("page"), ObjectId("img"), ObjectId("clip")
        }

    def test_leader_updates_most(self, rng):
        traces = self._build(rng)
        assert (
            traces[ObjectId("page")].update_count
            >= traces[ObjectId("img")].update_count
            >= traces[ObjectId("clip")].update_count
        )

    def test_join_probability_respected(self, rng):
        traces = self._build(rng, join=0.5)
        ratio = (
            traces[ObjectId("img")].update_count
            / traces[ObjectId("page")].update_count
        )
        assert ratio == pytest.approx(0.5, abs=0.1)

    def test_follower_updates_lag_bursts(self, rng):
        traces = self._build(rng, join=1.0, max_lag=30.0)
        page_times = traces[ObjectId("page")].times
        for img_time in traces[ObjectId("img")].times:
            nearest = min(abs(img_time - t) for t in page_times)
            assert nearest <= 30.0 + 1e-9

    def test_zero_lag_is_simultaneous(self, rng):
        followers = [FollowerSpec("img", join_probability=1.0, max_lag=0.0)]
        traces = correlated_group_traces(
            "page", followers, rng, burst_rate=1 / 100.0, end=10000.0
        )
        page_times = set(traces[ObjectId("page")].times)
        img_times = set(traces[ObjectId("img")].times)
        assert img_times <= page_times

    def test_invalid_follower_spec_rejected(self):
        with pytest.raises(ValueError):
            FollowerSpec("x", join_probability=1.5)
        with pytest.raises(ValueError):
            FollowerSpec("x", join_probability=0.5, max_lag=-1.0)

