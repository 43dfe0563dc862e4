"""Unit tests for the experiment harness: result rows, render, workloads."""

from __future__ import annotations

import math

import pytest

from repro.analysis.timeseries import Series
from repro.core.errors import ExperimentError
from repro.api.render import (
    format_cell,
    render_dict_rows,
    render_series,
    render_series_block,
    render_table,
)
from repro.experiments.workloads import (
    DEFAULT_SEED,
    news_trace,
    news_traces,
    stock_trace,
    stock_traces,
)
from repro.scenarios.engine import ScenarioResult
from repro.scenarios.spec import ScenarioSpec


def _result(rows):
    spec = ScenarioSpec(
        name="_rows",
        description="hand-built rows",
        axis="x",
        values=tuple(row["x"] for row in rows),
    )
    return ScenarioResult(spec=spec, seed=DEFAULT_SEED, rows=rows)


class TestSweep:
    def test_rows_carry_parameter_and_builder_columns(self):
        result = _result([{"x": 1.0, "square": 1.0}, {"x": 2.0, "square": 4.0}])
        assert result.column("x") == [1.0, 2.0]
        assert result.column("square") == [1.0, 4.0]

    def test_missing_column_raises(self):
        result = _result([{"x": 1.0, "y": 1.0}])
        with pytest.raises(ExperimentError, match="missing"):
            result.column("z")


class TestRender:
    def test_format_cell_variants(self):
        assert format_cell(None) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(3) == "3"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(1.0) == "1"
        assert format_cell(float("nan")) == "nan"
        assert format_cell(float("inf")) == "inf"
        assert format_cell("text") == "text"
        assert format_cell(1e-9) == "1e-09"

    def test_render_table_alignment(self):
        table = render_table(
            ["name", "value"], [["a", 1], ["bb", 22]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_render_table_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["x", "y"]])

    def test_render_dict_rows_infers_columns(self):
        out = render_dict_rows([{"a": 1, "b": 2}])
        assert "a" in out and "b" in out

    def test_render_dict_rows_empty(self):
        assert "(empty)" in render_dict_rows([], title="T")

    def test_render_series_shows_range(self):
        series = Series(start=0.0, bin_width=1.0, values=(0.0, 5.0, 10.0),
                        label="s")
        out = render_series(series)
        assert "s" in out
        assert "[0, 10]" in out

    def test_render_series_handles_nan(self):
        series = Series(
            start=0.0, bin_width=1.0, values=(math.nan, 1.0), label="s"
        )
        out = render_series(series)
        assert "_" in out

    def test_render_series_downsamples(self):
        series = Series(
            start=0.0, bin_width=1.0, values=tuple(float(i) for i in range(100)),
            label="s",
        )
        out = render_series(series, width=10)
        body = out.split("|")[1]
        assert len(body) == 10

    def test_render_series_block(self):
        a = Series(start=0.0, bin_width=1.0, values=(1.0,), label="a")
        b = Series(start=0.0, bin_width=1.0, values=(2.0,), label="b")
        out = render_series_block([a, b], title="Block")
        assert out.splitlines()[0] == "Block"
        assert len(out.splitlines()) == 3


class TestWorkloads:
    def test_news_traces_deterministic(self):
        t1 = news_traces(123)["cnn_fn"]
        t2 = news_traces(123)["cnn_fn"]
        assert t1.times == t2.times

    def test_different_seeds_differ(self):
        t1 = news_trace("cnn_fn", 1)
        t2 = news_trace("cnn_fn", 2)
        assert t1.times != t2.times

    def test_unknown_keys_rejected(self):
        with pytest.raises(KeyError):
            news_trace("bbc")
        with pytest.raises(KeyError):
            stock_trace("msft")

    def test_stock_traces_have_values(self):
        for trace in stock_traces(DEFAULT_SEED).values():
            assert trace.has_values
