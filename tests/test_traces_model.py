"""Unit tests for the trace data model."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import TraceFormatError, TraceOrderingError
from repro.core.types import ObjectId
from repro.traces.model import (
    UpdateTrace,
    trace_from_ticks,
    trace_from_times,
)


class TestConstruction:
    def test_from_times_assigns_sequential_versions(self):
        trace = trace_from_times(ObjectId("x"), [5.0, 1.0, 3.0])
        # Version i is index i of the columns.
        assert trace.times == [1.0, 3.0, 5.0]
        assert trace.values == [None, None, None]

    def test_from_ticks_sorts_by_time(self):
        trace = trace_from_ticks(ObjectId("x"), [(3.0, 30.0), (1.0, 10.0)])
        assert trace.times == [1.0, 3.0]
        assert trace.values == [10.0, 30.0]

    def test_non_monotone_times_rejected(self):
        with pytest.raises(TraceOrderingError):
            UpdateTrace(ObjectId("x"), [2.0, 1.0])

    def test_duplicate_times_rejected(self):
        with pytest.raises(TraceOrderingError):
            UpdateTrace(ObjectId("x"), [2.0, 2.0])

    def test_start_after_first_update_rejected(self):
        with pytest.raises(TraceFormatError, match="start_time"):
            UpdateTrace(ObjectId("x"), [1.0], start_time=2.0)

    def test_end_before_last_update_rejected(self):
        with pytest.raises(TraceFormatError, match="end_time"):
            UpdateTrace(ObjectId("x"), [5.0], end_time=4.0)

    def test_empty_trace_allowed(self):
        trace = UpdateTrace(ObjectId("x"), [], start_time=0.0, end_time=10.0)
        assert trace.update_count == 0
        assert trace.duration == 10.0

    def test_default_end_time_is_last_update(self):
        trace = trace_from_times(ObjectId("x"), [3.0, 7.0])
        assert trace.end_time == 7.0

    def test_has_values(self, simple_trace, valued_trace):
        assert not simple_trace.has_values
        assert valued_trace.has_values

    def test_metadata_defaults_to_object_id(self):
        trace = trace_from_times(ObjectId("x"), [1.0])
        assert trace.metadata.name == "x"

    def test_nan_time_from_the_sorting_constructor_rejected(self):
        with pytest.raises(TraceFormatError, match="finite"):
            trace_from_times(ObjectId("x"), [1.0, math.nan, 3.0])

    @pytest.mark.parametrize("end", [math.nan, math.inf])
    def test_non_finite_end_time_rejected(self, end):
        with pytest.raises(TraceFormatError, match="end_time"):
            UpdateTrace(ObjectId("x"), [1.0], end_time=end)

    def test_column_lengths_must_agree(self):
        with pytest.raises(TraceFormatError, match="values"):
            UpdateTrace(ObjectId("x"), [1.0, 2.0], [1.0])

    @settings(max_examples=200)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e9),
            min_size=2,
            max_size=20,
            unique=True,
        ).map(sorted),
        valued=st.booleans(),
        index=st.integers(min_value=0),
        flaw=st.sampled_from(
            ["nan", "inf", "-inf", "negative", "repeat", "decrease", "value"]
        ),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_constructor_accepts_exactly_finite_increasing_columns(
        self, times, valued, index, flaw, bad
    ):
        values = [float(n) for n in range(len(times))] if valued else None
        trace = UpdateTrace(ObjectId("x"), times, values)
        assert trace.times == times
        assert trace.values == (values or [None] * len(times))

        i = index % (len(times) - 1)
        values = [float(n) for n in range(len(times))]
        if flaw == "nan":
            times[i] = math.nan
        elif flaw == "inf":
            times[i] = math.inf
        elif flaw == "-inf":
            times[i] = -math.inf
        elif flaw == "negative":
            times[i] = -1.0 - times[i]
        elif flaw == "repeat":
            times[i + 1] = times[i]
        elif flaw == "decrease":
            times[i], times[i + 1] = times[i + 1], times[i]
        else:
            values[i] = bad
        with pytest.raises(TraceFormatError):
            UpdateTrace(ObjectId("x"), times, values)


class TestQueries:
    def test_latest_at_exact_time(self, valued_trace):
        # The tick at t=200 set value 19: it is already the latest at 200.
        assert valued_trace.value_at(200.0) == 19.0

    def test_latest_at_between_updates(self, valued_trace):
        assert valued_trace.value_at(205.0) == 19.0

    def test_latest_at_before_first(self, valued_trace):
        assert valued_trace.value_at(9.5) is None

    def test_next_after(self, simple_trace):
        assert simple_trace.next_after(200.0) == 300.0

    def test_next_after_last(self, simple_trace):
        assert simple_trace.next_after(1000.0) is None

    def test_value_at(self, valued_trace):
        assert valued_trace.value_at(25.0) == 1.0
        assert valued_trace.value_at(5.0) is None
        assert valued_trace.value_at(5.0, default=-1.0) == -1.0
