"""Unit tests for simulation statistics primitives."""

from __future__ import annotations

import math

import pytest

from repro.sim.stats import Counter, SummaryStats


class TestCounter:
    def test_increment_and_get(self):
        counter = Counter()
        assert counter.get("polls") == 0
        counter.increment("polls")
        counter.increment("polls", 2)
        assert counter.get("polls") == 3

    def test_negative_increment_rejected(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.increment("polls", -1)

    def test_as_dict_is_a_copy(self):
        counter = Counter()
        counter.increment("a")
        snapshot = counter.as_dict()
        snapshot["a"] = 99
        assert counter.get("a") == 1

    def test_iteration_and_len(self):
        counter = Counter()
        counter.increment("a")
        counter.increment("b")
        assert sorted(counter) == ["a", "b"]
        assert len(counter) == 2

    def test_in_place_bumps_read_like_increments(self):
        counter = Counter()
        counter.counts["polls"] += 1
        counter.counts["polls"] += 1
        counter.increment("hits")
        assert counter.get("polls") == 2
        assert counter.as_dict() == {"polls": 2, "hits": 1}
        assert type(counter.as_dict()) is dict
        assert repr(counter) == "Counter({'polls': 2, 'hits': 1})"

    def test_reading_a_missing_name_does_not_create_it(self):
        counter = Counter()
        assert counter.get("never") == 0
        assert len(counter) == 0 and counter.as_dict() == {}


class TestSummaryStats:
    def test_mean_min_max(self):
        stats = SummaryStats()
        for x in (2.0, 4.0, 6.0):
            stats.observe(x)
        assert stats.mean == pytest.approx(4.0)
        assert stats.minimum == 2.0
        assert stats.maximum == 6.0
        assert stats.count == 3

    def test_variance_matches_population_formula(self):
        stats = SummaryStats()
        data = [1.0, 2.0, 3.0, 4.0]
        for x in data:
            stats.observe(x)
        mean = sum(data) / len(data)
        expected = sum((x - mean) ** 2 for x in data) / len(data)
        assert stats.variance == pytest.approx(expected)
        assert stats.stddev == pytest.approx(math.sqrt(expected))

    def test_single_observation_has_zero_variance(self):
        stats = SummaryStats()
        stats.observe(5.0)
        assert stats.variance == 0.0

    def test_empty_min_rejected(self):
        stats = SummaryStats()
        with pytest.raises(ValueError):
            _ = stats.minimum

    def test_non_finite_observation_rejected(self):
        stats = SummaryStats()
        with pytest.raises(ValueError):
            stats.observe(math.inf)

    def test_snapshot_of_empty(self):
        snap = SummaryStats().snapshot()
        assert snap.count == 0
        assert math.isnan(snap.minimum)

    def test_snapshot_is_immutable_copy(self):
        stats = SummaryStats()
        stats.observe(1.0)
        snap = stats.snapshot()
        stats.observe(100.0)
        assert snap.maximum == 1.0
