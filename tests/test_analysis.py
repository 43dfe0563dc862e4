"""Unit tests for analysis utilities: rate estimators, time series."""

from __future__ import annotations

import math

import pytest

from repro.analysis.rates import (
    UpdateRateEstimator,
    ValueRateEstimator,
)
from repro.analysis.timeseries import (
    Series,
    bin_count,
    ratio_series,
    sample_step_function,
)


class TestUpdateRateEstimator:
    def test_no_data_means_unknown(self):
        estimator = UpdateRateEstimator()
        assert estimator.rate() is None
        assert estimator.mean_gap() is None

    def test_regular_gaps_converge(self):
        estimator = UpdateRateEstimator(smoothing=0.5)
        for i in range(20):
            estimator.observe_modification(10.0 * (i + 1))
        assert estimator.rate() == pytest.approx(0.1, rel=1e-6)

    def test_repeated_last_modified_ignored(self):
        estimator = UpdateRateEstimator()
        estimator.observe_modification(10.0)
        estimator.observe_modification(20.0)
        estimator.observe_modification(20.0)  # 304-style repeat
        assert estimator.sample_count == 1

    def test_silence_decays_rate(self):
        estimator = UpdateRateEstimator()
        for i in range(5):
            estimator.observe_modification(10.0 * (i + 1))
        active = estimator.rate(now=50.0)
        silent = estimator.rate(now=1000.0)
        assert silent < active

    def test_observe_update_count_uses_mean_gap(self):
        estimator = UpdateRateEstimator(smoothing=1.0)
        estimator.observe_update_count(5, 50.0, last_modified=50.0)
        assert estimator.rate() == pytest.approx(0.1)

    def test_observe_update_count_ignores_empty(self):
        estimator = UpdateRateEstimator()
        estimator.observe_update_count(0, 50.0, last_modified=0.0)
        assert estimator.rate() is None


class TestValueRateEstimator:
    def test_first_observation_returns_none(self):
        estimator = ValueRateEstimator()
        assert estimator.observe(0.0, 10.0) is None

    def test_rate_is_abs_slope(self):
        estimator = ValueRateEstimator()
        estimator.observe(0.0, 10.0)
        rate = estimator.observe(10.0, 5.0)
        assert rate == pytest.approx(0.5)

    def test_smoothing_blends(self):
        estimator = ValueRateEstimator(smoothing=0.5)
        estimator.observe(0.0, 0.0)
        estimator.observe(10.0, 10.0)  # rate 1.0
        rate = estimator.observe(20.0, 10.0)  # instantaneous 0.0
        assert rate == pytest.approx(0.5)

    def test_zero_interval_ignored(self):
        estimator = ValueRateEstimator()
        estimator.observe(0.0, 10.0)
        estimator.observe(10.0, 20.0)
        before = estimator.rate
        assert estimator.observe(10.0, 30.0) == before

    def test_non_finite_value_rejected(self):
        estimator = ValueRateEstimator()
        with pytest.raises(ValueError):
            estimator.observe(0.0, math.nan)


class TestSeries:
    def test_bin_count(self):
        series = bin_count(
            [1.0, 2.0, 2.5, 9.0], start=0.0, end=10.0, bin_width=5.0
        )
        assert series.values == (3.0, 1.0)

    def test_bin_count_excludes_out_of_window(self):
        series = bin_count(
            [-1.0, 10.0, 5.0], start=0.0, end=10.0, bin_width=5.0
        )
        assert series.values == (0.0, 1.0)

    def test_bin_centers(self):
        series = Series(start=0.0, bin_width=2.0, values=(1.0, 2.0))
        assert series.bin_centers() == [1.0, 3.0]
        assert series.end == 4.0

    def test_sample_step_function(self):
        knots = [(0.0, 1.0), (5.0, 2.0)]
        series = sample_step_function(
            knots, start=0.0, end=10.0, bin_width=2.0
        )
        # Centers 1,3,5,7,9 → values 1,1,2,2,2.
        assert series.values == (1.0, 1.0, 2.0, 2.0, 2.0)

    def test_sample_step_function_initial_value(self):
        series = sample_step_function(
            [(6.0, 5.0)], start=0.0, end=10.0, bin_width=5.0, initial=-1.0
        )
        assert series.values == (-1.0, 5.0)

    def test_sample_step_function_unsorted_knots_rejected(self):
        with pytest.raises(ValueError):
            sample_step_function(
                [(5.0, 1.0), (1.0, 2.0)], start=0.0, end=10.0, bin_width=5.0
            )

    def test_ratio_series(self):
        a = Series(start=0.0, bin_width=1.0, values=(4.0, 2.0, 1.0))
        b = Series(start=0.0, bin_width=1.0, values=(2.0, 0.0, 4.0))
        ratio = ratio_series(a, b)
        assert ratio.values[0] == 2.0
        assert math.isnan(ratio.values[1])
        assert ratio.values[2] == 0.25

    def test_ratio_series_misaligned_rejected(self):
        a = Series(start=0.0, bin_width=1.0, values=(1.0,))
        b = Series(start=1.0, bin_width=1.0, values=(1.0,))
        with pytest.raises(ValueError):
            ratio_series(a, b)

    def test_invalid_bin_width_rejected(self):
        with pytest.raises(ValueError):
            Series(start=0.0, bin_width=0.0, values=())
