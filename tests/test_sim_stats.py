"""Unit tests for simulation statistics primitives."""

from __future__ import annotations

import pytest

from repro.sim.stats import Counter


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
