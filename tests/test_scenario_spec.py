"""Unit tests for ScenarioSpec serialization and validation.

``to_dict`` is what goldens and ``ScenarioResult.to_dict`` store; a spec
comes back from it through the constructor, so that is the round trip.
"""

from __future__ import annotations

import json

import pytest

from repro.scenarios.spec import (
    ScenarioSpec,
    ScenarioSpecError,
    parse_param_overrides,
)


def _through_json(spec: ScenarioSpec) -> ScenarioSpec:
    return ScenarioSpec(**json.loads(json.dumps(spec.to_dict())))


def make_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        name="toy",
        description="a toy scenario",
        axis="delta_min",
        values=(1.0, 2.0, 5.0),
        params={"trace": "cnn_fn", "knob": 3, "nested": {"a": [1, 2]}},
        columns=("delta_min", "polls"),
        title="Toy scenario",
        tags=("test",),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        spec = make_spec()
        assert ScenarioSpec(**spec.to_dict()) == spec

    def test_to_dict_is_json_serializable(self):
        # Nested tuples in params must come out as plain lists.
        assert _through_json(make_spec()) == make_spec()

    def test_minimal_spec_round_trips(self):
        spec = ScenarioSpec(
            name="mini", description="d", axis="x", values=(1,)
        )
        assert ScenarioSpec(**spec.to_dict()) == spec

    def test_string_axis_values_survive(self):
        spec = make_spec(values=("flat", "hierarchy"))
        assert _through_json(spec).values == ("flat", "hierarchy")

    def test_every_registered_spec_round_trips(self):
        from repro.scenarios.registry import SCENARIOS

        for entry in SCENARIOS.values():
            assert _through_json(entry.spec) == entry.spec


class TestRejection:
    def test_empty_name_rejected(self):
        with pytest.raises(ScenarioSpecError, match="name"):
            make_spec(name="")

    def test_non_string_name_rejected(self):
        with pytest.raises(ScenarioSpecError, match="name must be a string"):
            make_spec(name=3)

    def test_empty_values_rejected(self):
        with pytest.raises(ScenarioSpecError, match="values"):
            make_spec(values=())

    def test_bool_axis_value_rejected(self):
        with pytest.raises(ScenarioSpecError, match="axis values"):
            make_spec(values=(True,))

    def test_non_scalar_axis_value_rejected(self):
        with pytest.raises(ScenarioSpecError, match="axis values"):
            make_spec(values=([1, 2],))

    def test_scalar_values_rejected(self):
        with pytest.raises(ScenarioSpecError, match="values must be a sequence"):
            make_spec(values=7)

    def test_non_string_param_key_rejected(self):
        with pytest.raises(ScenarioSpecError, match="param names"):
            make_spec(params={3: "x"})

    def test_non_jsonable_param_value_rejected(self):
        with pytest.raises(ScenarioSpecError, match="non-JSON-serializable"):
            make_spec(params={"bad": object()})

    def test_non_jsonable_nested_param_rejected(self):
        with pytest.raises(ScenarioSpecError, match="non-JSON-serializable"):
            make_spec(params={"bad": {"deep": [object()]}})

    def test_non_string_columns_rejected(self):
        with pytest.raises(ScenarioSpecError, match="columns"):
            make_spec(columns=(1, 2))


class TestOverrides:
    def test_with_params_merges(self):
        spec = make_spec().with_params({"knob": 9})
        assert spec.params["knob"] == 9
        assert spec.params["trace"] == "cnn_fn"

    def test_with_params_rejects_unknown(self):
        with pytest.raises(ScenarioSpecError, match="unknown parameter"):
            make_spec().with_params({"typo": 1})

    def test_with_params_does_not_mutate_original(self):
        original = make_spec()
        original.with_params({"knob": 9})
        assert original.params["knob"] == 3

    def test_with_values_replaces(self):
        assert make_spec().with_values([7.0]).values == (7.0,)


class TestParamOverridesParsing:
    def test_json_values_parsed(self):
        parsed = parse_param_overrides(
            ["a=1", "b=2.5", "c=true", 'd=[1,2]', 'e={"k":1}']
        )
        assert parsed == {
            "a": 1,
            "b": 2.5,
            "c": True,
            "d": [1, 2],
            "e": {"k": 1},
        }

    def test_bare_strings_fall_back(self):
        assert parse_param_overrides(["trace=guardian"]) == {
            "trace": "guardian"
        }

    def test_missing_equals_rejected(self):
        with pytest.raises(ScenarioSpecError, match="malformed"):
            parse_param_overrides(["nope"])

    def test_empty_key_rejected(self):
        with pytest.raises(ScenarioSpecError, match="malformed"):
            parse_param_overrides(["=3"])
