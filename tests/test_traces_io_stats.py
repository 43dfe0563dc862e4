"""Unit tests for trace characterisation (:mod:`repro.traces.stats`).

The file keeps its historical name so the ids of the tests in it do not
move; the CSV/JSON serialisation it once also covered is gone, and the
updates-per-bin series is counted by
:func:`repro.analysis.timeseries.bin_count`.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.timeseries import bin_count
from repro.core.types import ObjectId
from repro.traces.stats import summarize_temporal, summarize_value


def updates_per_bin(trace, bin_width, *, end=None):
    """Figure 4(a)'s series ("number of updates per 2 hours"), counted
    by the one bin counter over the trace's update instants."""
    end = trace.end_time if end is None else end
    series = bin_count(trace.times, start=trace.start_time, end=end, bin_width=bin_width)
    return list(series.values)


class TestStats:
    def test_summarize_temporal(self, simple_trace):
        summary = summarize_temporal(simple_trace)
        assert summary.update_count == 10
        assert summary.duration == 1100.0
        assert summary.mean_update_interval == pytest.approx(110.0)

    def test_summarize_temporal_empty(self):
        from repro.traces.model import UpdateTrace

        trace = UpdateTrace(ObjectId("x"), [], start_time=0.0, end_time=10.0)
        assert math.isinf(summarize_temporal(trace).mean_update_interval)

    def test_summarize_value(self, valued_trace):
        summary = summarize_value(valued_trace)
        assert summary.min_value == 0.0
        assert summary.max_value == 99.0
        assert summary.value_range == 99.0

    def test_summarize_value_rejects_temporal_trace(self, simple_trace):
        with pytest.raises(ValueError, match="value"):
            summarize_value(simple_trace)

    def test_updates_per_bin(self, simple_trace):
        counts = updates_per_bin(simple_trace, 500.0)
        # Bins: [0,500) has 100..400 → 4; [500,1000) has 500..900 → 5;
        # [1000,1100) has 1000 → 1.
        assert counts == [4, 5, 1]

    def test_updates_per_bin_with_explicit_end(self, simple_trace):
        counts = updates_per_bin(simple_trace, 500.0, end=500.0)
        assert counts == [4]

    def test_updates_per_bin_invalid_width(self, simple_trace):
        with pytest.raises(ValueError):
            updates_per_bin(simple_trace, 0.0)
