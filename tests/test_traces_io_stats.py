"""Unit tests for trace serialisation and characterisation."""

from __future__ import annotations

import io
import math

import pytest

from repro.core.errors import TraceFormatError
from repro.core.types import ObjectId
from repro.traces.io import (
    from_json_dict,
    read_csv,
    read_json,
    to_json_dict,
    trace_from_csv_string,
    trace_to_csv_string,
    write_csv,
    write_json,
)
from repro.traces.model import TraceMetadata, trace_from_ticks, trace_from_times
from repro.traces.stats import (
    inter_update_gaps,
    summarize_temporal,
    summarize_value,
    update_rate_per_bin,
    updates_per_bin,
)


class TestCsvRoundTrip:
    def test_temporal_round_trip(self, simple_trace):
        text = trace_to_csv_string(simple_trace)
        back = trace_from_csv_string(
            text, "obj", start_time=0.0, end_time=1100.0
        )
        assert [r.time for r in back.records] == [
            r.time for r in simple_trace.records
        ]
        assert not back.has_values

    def test_valued_round_trip(self, valued_trace):
        text = trace_to_csv_string(valued_trace)
        back = trace_from_csv_string(text, "stock")
        assert [r.value for r in back.records] == [
            r.value for r in valued_trace.records
        ]

    def test_float_precision_preserved(self):
        trace = trace_from_ticks(ObjectId("x"), [(0.1 + 0.2, 1.0 / 3.0)])
        back = trace_from_csv_string(trace_to_csv_string(trace), "x")
        assert back.records[0].time == 0.1 + 0.2
        assert back.records[0].value == 1.0 / 3.0

    def test_file_round_trip(self, tmp_path, simple_trace):
        path = tmp_path / "trace.csv"
        write_csv(simple_trace, path)
        back = read_csv(path, "obj")
        assert back.update_count == simple_trace.update_count

    def test_bad_header_rejected(self):
        with pytest.raises(TraceFormatError, match="header"):
            read_csv(io.StringIO("a,b,c\n1,2,3\n"), "x")

    def test_bad_field_count_rejected(self):
        with pytest.raises(TraceFormatError, match="3 fields"):
            read_csv(io.StringIO("time,version,value\n1,2\n"), "x")

    def test_non_numeric_field_rejected(self):
        with pytest.raises(TraceFormatError):
            read_csv(io.StringIO("time,version,value\nx,0,\n"), "x")

    def test_blank_lines_skipped(self):
        trace = read_csv(
            io.StringIO("time,version,value\n1.0,0,\n\n2.0,1,\n"), "x"
        )
        assert trace.update_count == 2

    def test_empty_file_gives_empty_trace(self):
        trace = read_csv(io.StringIO(""), "x")
        assert trace.update_count == 0

    def test_default_start_time_is_first_record(self):
        # Regression: the old default min(0.0, first_time) silently
        # stretched late-starting traces back to t=0, inflating duration.
        trace = read_csv(
            io.StringIO("time,version,value\n3600.0,0,\n7200.0,1,\n"), "x"
        )
        assert trace.start_time == 3600.0
        assert trace.duration == 3600.0

    def test_explicit_start_time_overrides_default(self):
        trace = read_csv(
            io.StringIO("time,version,value\n3600.0,0,\n"),
            "x",
            start_time=0.0,
        )
        assert trace.start_time == 0.0


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path, valued_trace):
        path = tmp_path / "trace.json"
        write_json(valued_trace, path)
        back = read_json(path)
        assert back.object_id == valued_trace.object_id
        assert back.start_time == valued_trace.start_time
        assert back.end_time == valued_trace.end_time
        assert [(r.time, r.version, r.value) for r in back.records] == [
            (r.time, r.version, r.value) for r in valued_trace.records
        ]

    def test_metadata_preserved(self):
        trace = trace_from_times(
            ObjectId("x"),
            [1.0],
            metadata=TraceMetadata(
                name="T", description="d", source="s", value_unit="USD"
            ),
        )
        back = from_json_dict(to_json_dict(trace))
        assert back.metadata.name == "T"
        assert back.metadata.description == "d"
        assert back.metadata.source == "s"
        assert back.metadata.value_unit == "USD"

    def test_unsupported_version_rejected(self, simple_trace):
        data = to_json_dict(simple_trace)
        data["format_version"] = 999
        with pytest.raises(TraceFormatError, match="version"):
            from_json_dict(data)

    def test_missing_key_rejected(self, simple_trace):
        data = to_json_dict(simple_trace)
        del data["records"]
        with pytest.raises(TraceFormatError):
            from_json_dict(data)

    def test_non_object_top_level_rejected(self):
        with pytest.raises(TraceFormatError):
            read_json(io.StringIO("[1, 2, 3]"))

    def test_non_dict_record_rejected_with_index(self, simple_trace):
        data = to_json_dict(simple_trace)
        data["records"][3] = [1.0, 3]
        with pytest.raises(TraceFormatError, match="record 3"):
            from_json_dict(data)

    def test_non_numeric_time_rejected_with_index(self, simple_trace):
        data = to_json_dict(simple_trace)
        data["records"][1]["time"] = "100.0"
        with pytest.raises(TraceFormatError, match="record 1: 'time'"):
            from_json_dict(data)

    def test_bool_time_rejected(self, simple_trace):
        # bool is an int subclass; it must not pass as a timestamp.
        data = to_json_dict(simple_trace)
        data["records"][0]["time"] = True
        with pytest.raises(TraceFormatError, match="record 0: 'time'"):
            from_json_dict(data)

    def test_non_integer_version_rejected_with_index(self, simple_trace):
        data = to_json_dict(simple_trace)
        data["records"][2]["version"] = 2.5
        with pytest.raises(TraceFormatError, match="record 2: 'version'"):
            from_json_dict(data)

    def test_non_numeric_value_rejected_with_index(self, valued_trace):
        data = to_json_dict(valued_trace)
        data["records"][4]["value"] = "high"
        with pytest.raises(TraceFormatError, match="record 4: 'value'"):
            from_json_dict(data)

    def test_integral_fields_coerced_to_float(self, simple_trace):
        data = to_json_dict(simple_trace)
        data["records"][0]["time"] = 100  # JSON int, still a valid time
        back = from_json_dict(data)
        assert isinstance(back.records[0].time, float)


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

    def test_mean_tick_interval_divides_by_gap_count(self):
        # Regression: n ticks span n-1 gaps, not n.  Three ticks over
        # [0, 20] are 10 s apart, not 20/3.
        trace = trace_from_ticks(
            ObjectId("v"), [(0.0, 1.0), (10.0, 2.0), (20.0, 3.0)]
        )
        summary = summarize_value(trace)
        assert summary.mean_tick_interval == pytest.approx(10.0)

    def test_mean_tick_interval_single_tick_is_infinite(self):
        trace = trace_from_ticks(ObjectId("v"), [(5.0, 1.0)])
        assert math.isinf(summarize_value(trace).mean_tick_interval)

    def test_inter_update_gaps(self, simple_trace):
        gaps = inter_update_gaps(simple_trace)
        assert len(gaps) == 9
        assert all(g == pytest.approx(100.0) for g in gaps)

    def test_updates_per_bin(self, simple_trace):
        counts = updates_per_bin(simple_trace, 500.0)
        # Bins: [0,500) has 100..400 → 4; [500,1000) has 500..900 → 5;
        # [1000,1100) has 1000 → 1.
        assert counts == [4, 5, 1]

    def test_updates_per_bin_with_explicit_end(self, simple_trace):
        counts = updates_per_bin(simple_trace, 500.0, end=500.0)
        assert counts == [4]

    def test_update_rate_per_bin(self, simple_trace):
        rates = update_rate_per_bin(simple_trace, 500.0)
        assert rates[0] == pytest.approx(4 / 500.0)

    def test_updates_per_bin_invalid_width(self, simple_trace):
        with pytest.raises(ValueError):
            updates_per_bin(simple_trace, 0.0)
