"""Unit tests for the trace data model."""

from __future__ import annotations

import pytest

from repro.core.errors import TraceFormatError, TraceOrderingError
from repro.core.types import ObjectId, UpdateRecord
from repro.traces.model import (
    UpdateTrace,
    trace_from_ticks,
    trace_from_times,
)


class TestConstruction:
    def test_from_times_assigns_sequential_versions(self):
        trace = trace_from_times(ObjectId("x"), [5.0, 1.0, 3.0])
        assert [r.time for r in trace.records] == [1.0, 3.0, 5.0]
        assert [r.version for r in trace.records] == [0, 1, 2]

    def test_from_ticks_sorts_by_time(self):
        trace = trace_from_ticks(ObjectId("x"), [(3.0, 30.0), (1.0, 10.0)])
        assert [r.value for r in trace.records] == [10.0, 30.0]

    def test_non_monotone_times_rejected(self):
        records = [UpdateRecord(2.0, 0), UpdateRecord(1.0, 1)]
        with pytest.raises(TraceOrderingError):
            UpdateTrace(ObjectId("x"), records)

    def test_duplicate_times_rejected(self):
        records = [UpdateRecord(2.0, 0), UpdateRecord(2.0, 1)]
        with pytest.raises(TraceOrderingError):
            UpdateTrace(ObjectId("x"), records)

    def test_version_gap_rejected(self):
        records = [UpdateRecord(1.0, 0), UpdateRecord(2.0, 2)]
        with pytest.raises(TraceFormatError, match="version"):
            UpdateTrace(ObjectId("x"), records)

    def test_start_after_first_update_rejected(self):
        records = [UpdateRecord(1.0, 0)]
        with pytest.raises(TraceFormatError, match="start_time"):
            UpdateTrace(ObjectId("x"), records, start_time=2.0)

    def test_end_before_last_update_rejected(self):
        records = [UpdateRecord(5.0, 0)]
        with pytest.raises(TraceFormatError, match="end_time"):
            UpdateTrace(ObjectId("x"), records, end_time=4.0)

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


class TestQueries:
    def test_columns_align_with_records(self, simple_trace, valued_trace):
        for trace in (simple_trace, valued_trace):
            assert trace.times == [r.time for r in trace.records]
            assert trace.values == [r.value for r in trace.records]

    def test_latest_at_exact_time(self, simple_trace):
        record = simple_trace.latest_at(200.0)
        assert record is not None and record.time == 200.0

    def test_latest_at_between_updates(self, simple_trace):
        record = simple_trace.latest_at(250.0)
        assert record is not None and record.time == 200.0

    def test_latest_at_before_first(self, simple_trace):
        assert simple_trace.latest_at(50.0) is None

    def test_next_after(self, simple_trace):
        record = simple_trace.next_after(200.0)
        assert record is not None and record.time == 300.0

    def test_next_after_last(self, simple_trace):
        assert simple_trace.next_after(1000.0) is None

    def test_value_at(self, valued_trace):
        assert valued_trace.value_at(25.0) == 1.0
        assert valued_trace.value_at(5.0) is None
        assert valued_trace.value_at(5.0, default=-1.0) == -1.0

    def test_version_at(self, simple_trace):
        assert simple_trace.version_at(50.0) is None
        assert simple_trace.version_at(100.0) == 0
        assert simple_trace.version_at(1050.0) == 9


class TestDerivedTraces:
    def test_shifted_moves_all_times(self, simple_trace):
        shifted = simple_trace.shifted(1000.0)
        assert shifted.records[0].time == 1100.0
        assert shifted.start_time == 1000.0
        assert shifted.end_time == 2100.0
        assert shifted.update_count == simple_trace.update_count

    def test_shift_before_zero_rejected(self, simple_trace):
        with pytest.raises(ValueError):
            simple_trace.shifted(-1.0)

    def test_clipped_selects_window_and_renumbers(self, simple_trace):
        clipped = simple_trace.clipped(250.0, 550.0)
        assert [r.time for r in clipped.records] == [300.0, 400.0, 500.0]
        assert [r.version for r in clipped.records] == [0, 1, 2]
        assert clipped.start_time == 250.0
        assert clipped.end_time == 550.0

    def test_clipped_invalid_window_rejected(self, simple_trace):
        with pytest.raises(ValueError):
            simple_trace.clipped(500.0, 500.0)

    def test_clipped_preserves_values(self, valued_trace):
        clipped = valued_trace.clipped(15.0, 45.0)
        assert [r.value for r in clipped.records] == [1.0, 2.0, 3.0]
