"""Unit tests for repro.core.types."""

from __future__ import annotations

import math

import pytest

from repro.core.types import (
    GroupId,
    GroupSpec,
    ObjectId,
    TTRBounds,
    require_finite,
    require_fraction,
    require_positive,
)


class TestTTRBounds:
    def test_clamp_inside(self):
        bounds = TTRBounds(ttr_min=10.0, ttr_max=100.0)
        assert bounds.clamp(50.0) == 50.0

    def test_clamp_below(self):
        bounds = TTRBounds(ttr_min=10.0, ttr_max=100.0)
        assert bounds.clamp(1.0) == 10.0

    def test_clamp_above(self):
        bounds = TTRBounds(ttr_min=10.0, ttr_max=100.0)
        assert bounds.clamp(1e9) == 100.0

    def test_equal_bounds_allowed(self):
        bounds = TTRBounds(ttr_min=10.0, ttr_max=10.0)
        assert bounds.clamp(5.0) == 10.0
        assert bounds.clamp(15.0) == 10.0

    def test_inverted_bounds_rejected(self):
        for ttr_max in (9.0, math.nan):
            with pytest.raises(ValueError):
                TTRBounds(ttr_min=10.0, ttr_max=ttr_max)

    def test_non_positive_min_rejected(self):
        for ttr_min in (0.0, math.nan):
            with pytest.raises(ValueError):
                TTRBounds(ttr_min=ttr_min, ttr_max=10.0)


class TestGroupSpec:
    def _spec(self, members=("a", "b"), delta=5.0):
        return GroupSpec(
            group_id=GroupId("g"),
            members=tuple(ObjectId(m) for m in members),
            mutual_delta=delta,
        )

    def test_partners_of(self):
        spec = self._spec(members=("a", "b", "c"))
        assert spec.partners_of(ObjectId("b")) == (ObjectId("a"), ObjectId("c"))

    def test_partners_of_unknown_member(self):
        spec = self._spec()
        with pytest.raises(KeyError):
            spec.partners_of(ObjectId("zzz"))

    def test_singleton_group_rejected(self):
        with pytest.raises(ValueError, match="2 members"):
            self._spec(members=("a",))

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            self._spec(members=("a", "a"))

    def test_zero_delta_allowed(self):
        assert self._spec(delta=0.0).mutual_delta == 0.0

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            self._spec(delta=-1.0)


class TestValidators:
    def test_require_positive_accepts(self):
        assert require_positive("x", 1.5) == 1.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_require_positive_rejects(self, bad):
        with pytest.raises(ValueError):
            require_positive("x", bad)

    def test_require_finite_rejects_nan(self):
        with pytest.raises(ValueError):
            require_finite("x", math.nan)

    def test_require_fraction_inclusive(self):
        assert require_fraction("x", 0.0) == 0.0
        assert require_fraction("x", 1.0) == 1.0

    def test_require_fraction_exclusive(self):
        with pytest.raises(ValueError):
            require_fraction("x", 0.0, inclusive=False)
        with pytest.raises(ValueError):
            require_fraction("x", 1.0, inclusive=False)
        assert require_fraction("x", 0.5, inclusive=False) == 0.5
