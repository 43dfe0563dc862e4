"""Unit tests for the synthetic trace generators (Tables 2 and 3)."""

from __future__ import annotations

import random

import pytest

from repro.core.types import HOUR, MINUTE
from repro.traces.news import (
    CNN_FN,
    GUARDIAN,
    MIN_UPDATE_SPACING,
    NYT_AP,
    TABLE2_SPECS,
    DiurnalProfile,
    NewsTraceGenerator,
    NewsTraceSpec,
    generate_table2_traces,
)
from repro.traces.stocks import (
    ATT,
    MIN_TICK_SPACING,
    TABLE3_SPECS,
    YAHOO,
    StockTraceGenerator,
    StockTraceSpec,
    generate_table3_traces,
)


class TestDiurnalProfile:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="24"):
            DiurnalProfile(weights=(1.0,) * 23)

    def test_negative_weight_rejected(self):
        weights = [1.0] * 24
        weights[3] = -0.5
        with pytest.raises(ValueError):
            DiurnalProfile(weights=tuple(weights))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            DiurnalProfile(weights=(0.0,) * 24)


class TestNewsGenerator:
    @pytest.mark.parametrize("spec", TABLE2_SPECS, ids=lambda s: s.name)
    def test_exact_update_count(self, spec, rng):
        trace = NewsTraceGenerator(rng).generate(spec)
        assert trace.update_count == spec.update_count

    @pytest.mark.parametrize("spec", TABLE2_SPECS, ids=lambda s: s.name)
    def test_window_matches_spec(self, spec, rng):
        trace = NewsTraceGenerator(rng).generate(spec)
        assert trace.start_time == 0.0
        assert trace.end_time == spec.duration

    def test_updates_strictly_increasing_with_min_spacing(self, rng):
        trace = NewsTraceGenerator(rng).generate(GUARDIAN)
        times = trace.times
        for a, b in zip(times, times[1:]):
            assert b - a >= MIN_UPDATE_SPACING - 1e-9

    def test_updates_inside_window(self, rng):
        trace = NewsTraceGenerator(rng).generate(CNN_FN)
        assert all(0.0 <= t < CNN_FN.duration for t in trace.times)

    def test_deterministic_for_same_seed(self):
        t1 = NewsTraceGenerator(random.Random(7)).generate(NYT_AP)
        t2 = NewsTraceGenerator(random.Random(7)).generate(NYT_AP)
        assert t1.times == t2.times

    def test_different_seeds_differ(self):
        t1 = NewsTraceGenerator(random.Random(1)).generate(NYT_AP)
        t2 = NewsTraceGenerator(random.Random(2)).generate(NYT_AP)
        assert t1.times != t2.times

    def test_quiet_hours_receive_no_mass(self, rng):
        """Hours with zero diurnal weight must contain (almost) no updates.

        Bursts can push an update slightly past an active-hour boundary,
        so we allow a small leak, not a hard zero.
        """
        spec = NewsTraceSpec(
            name="t", start_hour_of_day=0.0, duration=2 * 86400.0,
            update_count=400, burstiness=0.0,
        )
        trace = NewsTraceGenerator(rng).generate(spec)
        quiet = 0
        for t in trace.times:
            hour = int((t % 86400.0) // HOUR)
            if spec.profile.weights[hour] == 0.0:
                quiet += 1
        assert quiet <= 2

    def test_mean_interval_matches_table2_column(self, rng):
        trace = NewsTraceGenerator(rng).generate(CNN_FN)
        mean_interval_min = trace.duration / trace.update_count / MINUTE
        assert mean_interval_min == pytest.approx(26.0, abs=0.5)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            NewsTraceSpec(name="x", start_hour_of_day=25.0, duration=100.0, update_count=5)
        with pytest.raises(ValueError):
            NewsTraceSpec(name="x", start_hour_of_day=0.0, duration=-1.0, update_count=5)
        with pytest.raises(ValueError):
            NewsTraceSpec(name="x", start_hour_of_day=0.0, duration=100.0, update_count=0)
        with pytest.raises(ValueError):
            NewsTraceSpec(name="x", start_hour_of_day=0.0, duration=100.0, update_count=5, burstiness=1.0)

    def test_too_many_updates_for_window_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            NewsTraceSpec(
                name="x", start_hour_of_day=0.0, duration=10.0, update_count=50
            )

    def test_generate_table2_traces_keys(self, rngs):
        traces = generate_table2_traces(rngs)
        assert sorted(traces) == ["cnn_fn", "guardian", "nyt_ap", "nyt_reuters"]

    def test_generate_table2_counts(self, rngs):
        traces = generate_table2_traces(rngs)
        assert traces["cnn_fn"].update_count == 113
        assert traces["nyt_ap"].update_count == 233
        assert traces["nyt_reuters"].update_count == 133
        assert traces["guardian"].update_count == 902


class TestStockGenerator:
    @pytest.mark.parametrize("spec", TABLE3_SPECS, ids=lambda s: s.name)
    def test_exact_tick_count(self, spec, rng):
        trace = StockTraceGenerator(rng).generate(spec)
        assert trace.update_count == spec.tick_count

    @pytest.mark.parametrize("spec", TABLE3_SPECS, ids=lambda s: s.name)
    def test_value_range_matches_exactly(self, spec, rng):
        trace = StockTraceGenerator(rng).generate(spec)
        values = trace.values
        assert min(values) == pytest.approx(spec.min_value)
        assert max(values) == pytest.approx(spec.max_value)

    def test_tick_spacing_enforced(self, rng):
        trace = StockTraceGenerator(rng).generate(YAHOO)
        times = trace.times
        for a, b in zip(times, times[1:]):
            assert b - a >= MIN_TICK_SPACING - 1e-9

    def test_ticks_inside_window(self, rng):
        trace = StockTraceGenerator(rng).generate(ATT)
        assert all(0.0 <= t < ATT.duration for t in trace.times)

    def test_deterministic_for_same_seed(self):
        t1 = StockTraceGenerator(random.Random(3)).generate(ATT)
        t2 = StockTraceGenerator(random.Random(3)).generate(ATT)
        assert (t1.times, t1.values) == (t2.times, t2.values)

    def test_all_records_have_values(self, rng):
        trace = StockTraceGenerator(rng).generate(YAHOO)
        assert trace.has_values

    def test_yahoo_changes_faster_than_att(self, rngs):
        """The Table 3 contrast: Yahoo must move more per unit time."""
        traces = generate_table3_traces(rngs)
        def mean_rate(trace):
            total = 0.0
            values = trace.values
            for p, q in zip(values, values[1:]):
                total += abs(q - p)
            return total / trace.duration
        assert mean_rate(traces["yahoo"]) > 5 * mean_rate(traces["att"])

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            StockTraceSpec(name="x", duration=100.0, tick_count=1,
                           min_value=1.0, max_value=2.0)
        with pytest.raises(ValueError):
            StockTraceSpec(name="x", duration=100.0, tick_count=10,
                           min_value=2.0, max_value=1.0)
        with pytest.raises(ValueError, match="fit"):
            StockTraceSpec(name="x", duration=1.0, tick_count=100,
                           min_value=1.0, max_value=2.0)

    def test_generate_table3_traces_keys(self, rngs):
        traces = generate_table3_traces(rngs)
        assert sorted(traces) == ["att", "yahoo"]
