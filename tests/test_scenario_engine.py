"""Unit tests for the scenario registry and the generic driver."""

from __future__ import annotations

import pytest

from repro.core.errors import ExperimentError
from repro.scenarios.engine import (
    describe_scenario,
    render_scenario,
    run_scenario,
)
from repro.scenarios.registry import (
    SCENARIOS,
    Scenario,
    UnknownScenarioError,
    register_scenario,
)
from repro.scenarios.spec import ScenarioSpec, ScenarioSpecError

# ----------------------------------------------------------------------
# A module-level toy scenario (point functions must pickle for the
# workers=2 tests, so no closures).
# ----------------------------------------------------------------------


def _toy_prepare(params, seed):
    return {"offset": params["offset"], "seed": seed}


def _toy_point(value, *, offset, seed):
    return {"doubled": value * 2 + offset, "seed_seen": seed}


def _toy_scenario(name="_toy"):
    return Scenario(
        spec=ScenarioSpec(
            name=name,
            description="toy",
            axis="x",
            values=(1.0, 2.0, 3.0),
            params={"offset": 10},
        ),
        point=_toy_point,
        prepare=_toy_prepare,
    )


def _labelled_point(value, *, offset, seed):
    del seed
    return {"x": f"<{value}>", "result": offset}


class TestRegistry:
    def test_unknown_name_raises(self):
        with pytest.raises(UnknownScenarioError, match="unknown scenario"):
            SCENARIOS.get("no_such_scenario")

    def test_duplicate_registration_rejected(self):
        from repro.core.registry import RegistryError

        register_scenario(_toy_scenario("_toy_dup"))
        try:
            with pytest.raises(RegistryError, match="already registered"):
                register_scenario(_toy_scenario("_toy_dup"))
        finally:
            SCENARIOS._items.pop("_toy_dup", None)


class TestDriver:
    def test_rows_in_axis_order_with_axis_column(self):
        result = run_scenario(_toy_scenario(), seed=5)
        assert [row["x"] for row in result.rows] == [1.0, 2.0, 3.0]
        assert [row["doubled"] for row in result.rows] == [12.0, 14.0, 16.0]
        assert all(row["seed_seen"] == 5 for row in result.rows)

    def test_axis_column_not_duplicated_when_point_reports_it(self):
        entry = Scenario(
            spec=_toy_scenario().spec, point=_labelled_point, prepare=_toy_prepare
        )
        result = run_scenario(entry)
        # The point's own axis column wins (configuration-grid style).
        assert [row["x"] for row in result.rows] == ["<1.0>", "<2.0>", "<3.0>"]

    def test_params_override_applies(self):
        result = run_scenario(_toy_scenario(), params={"offset": 0})
        assert result.rows[0]["doubled"] == 2.0
        assert result.spec.params["offset"] == 0

    def test_values_override_applies(self):
        result = run_scenario(_toy_scenario(), values=(7.0,))
        assert [row["x"] for row in result.rows] == [7.0]

    def test_parallel_matches_serial(self):
        serial = run_scenario(_toy_scenario(), seed=3)
        parallel = run_scenario(_toy_scenario(), seed=3, workers=2)
        assert serial.rows == parallel.rows

    def test_non_mapping_point_result_rejected(self):
        entry = Scenario(
            spec=_toy_scenario().spec,
            point=_bad_point,
            prepare=_toy_prepare,
        )
        with pytest.raises(ExperimentError, match="expected a mapping"):
            run_scenario(entry)

    def test_sweep_view_exposes_columns(self):
        result = run_scenario(_toy_scenario())
        assert result.column("x") == [1.0, 2.0, 3.0]
        assert result.column("doubled") == [12.0, 14.0, 16.0]

    def test_result_to_dict_is_serializable(self):
        import json

        payload = run_scenario(_toy_scenario()).to_dict()
        restored = json.loads(json.dumps(payload))
        assert restored["spec"]["name"] == "_toy"
        assert len(restored["rows"]) == 3
        assert restored["seed"] == 20010401


def _bad_point(value, *, offset, seed):
    del offset, seed
    return [value]


class TestRendering:
    def test_render_uses_title_and_columns(self):
        entry = Scenario(
            spec=ScenarioSpec(
                name="_toy_render",
                description="toy",
                axis="x",
                values=(1.0,),
                params={"offset": 0},
                columns=("x", "doubled"),
                title="Toy render",
            ),
            point=_toy_point,
            prepare=_toy_prepare,
        )
        text = render_scenario(run_scenario(entry))
        assert "Toy render" in text
        assert "doubled" in text
        # seed_seen is excluded by the column selection.
        assert "seed_seen" not in text

    def test_heading_fills_title_fields_from_params(self):
        spec = ScenarioSpec(
            name="_toy_heading",
            description="toy",
            axis="x",
            values=(1.0,),
            params={"trace": "cnn_fn", "pair": ["a", "b"]},
            title="Toy on {trace} ({pair})",
        )
        assert spec.heading == "Toy on cnn_fn (a+b)"
        assert (
            spec.with_params({"trace": "guardian"}).heading
            == "Toy on guardian (a+b)"
        )

    def test_title_naming_an_unknown_param_is_rejected(self):
        with pytest.raises(ScenarioSpecError, match="title"):
            ScenarioSpec(
                name="_toy_bad_title",
                description="toy",
                axis="x",
                values=(1.0,),
                title="Toy on {trace}",
            )

    def test_describe_lists_axis_params_and_tags(self):
        text = describe_scenario("figure3")
        assert "figure3" in text
        assert "delta_min" in text
        assert "detection_mode" in text
        assert "paper" in text

