"""GroupsConfig threading: config → registry → coordinators → rows."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    RESULT_COLUMNS,
    GroupConfig,
    GroupsConfig,
    SimulationBuilder,
    SimulationConfig,
    SimulationConfigError,
    run_simulation,
)

_DELTA = 120.0


def _poisson_workload() -> dict:
    return {
        "source": "poisson",
        "objects": ["a", "b", "c"],
        "params": {"rate_per_hour": 12.0, "hours": 4.0},
    }


def _groups_section() -> dict:
    return {
        "groups": [
            {"group_id": "pair", "members": ["a", "b"], "mutual_delta": _DELTA}
        ],
        "edges": [["b", "c"]],
        "component_delta": _DELTA,
        "mode": "triggered",
        "rate_ratio_threshold": 0.8,
    }


class TestGroupsConfig:
    def test_round_trip_through_json(self):
        config = SimulationConfig.from_dict(
            {
                "workload": _poisson_workload(),
                "policy": {"name": "limd", "params": {"delta": _DELTA}},
                "groups": _groups_section(),
            }
        )
        encoded = json.dumps(config.to_dict())
        assert SimulationConfig.from_dict(json.loads(encoded)) == config

    def test_default_groups_omitted_from_dict(self):
        # Pre-groups configs keep their historical serialized shape.
        assert "groups" not in SimulationConfig().to_dict()
        assert not SimulationConfig().groups.enabled

    def test_duplicate_group_ids_rejected(self):
        with pytest.raises(SimulationConfigError, match="duplicate group id"):
            GroupsConfig(
                groups=(
                    GroupConfig("g", ("a", "b"), 1.0),
                    GroupConfig("g", ("c", "d"), 1.0),
                )
            )

    def test_single_member_group_rejected(self):
        with pytest.raises(SimulationConfigError, match="members"):
            GroupConfig("g", ("a",), 1.0)

    def test_self_loop_edge_rejected(self):
        with pytest.raises(SimulationConfigError, match="itself"):
            GroupsConfig(edges=(("a", "a"),))

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationConfigError, match="mode"):
            GroupsConfig(mode="psychic")

    def test_groups_require_unsharded_runs(self):
        with pytest.raises(SimulationConfigError, match="shard"):
            SimulationConfig.from_dict(
                {
                    "workload": _poisson_workload(),
                    "groups": _groups_section(),
                    "topology": {
                        "kind": "tree",
                        "levels": [{"fan_out": 1}, {"fan_out": 4}],
                    },
                    "shards": 2,
                }
            )

    def test_groups_require_exact_fidelity(self):
        with pytest.raises(SimulationConfigError, match="exact"):
            SimulationConfig.from_dict(
                {
                    "workload": _poisson_workload(),
                    "groups": _groups_section(),
                    "fidelity": "fastforward",
                }
            )


class TestGroupsExecution:
    def test_group_columns_declared(self):
        for column in (
            "group",
            "group_polls",
            "group_violations",
            "group_fidelity_by_violations",
            "group_fidelity_by_time",
        ):
            assert column in RESULT_COLUMNS

    def test_tree_run_emits_group_rows_per_node(self):
        outcome = run_simulation(
            SimulationConfig.from_dict(
                {
                    "workload": _poisson_workload(),
                    "policy": {"name": "limd", "params": {"delta": _DELTA}},
                    "topology": {
                        "kind": "tree",
                        "levels": [{"fan_out": 1}, {"fan_out": 2}],
                    },
                    "groups": _groups_section(),
                    "seed": 11,
                }
            )
        )
        group_rows = [
            row
            for row in outcome.results.to_records()
            if row.get("group") is not None
        ]
        # Explicit "pair" plus the b-c edge component, on all 3 nodes.
        assert len(group_rows) == 6
        assert {row["group"] for row in group_rows} == {"pair", "component-0"}
        assert {row["node"] for row in group_rows} == {
            "L0.N0",
            "L1.N0",
            "L1.N1",
        }
        for row in group_rows:
            assert row["group_polls"] >= 0
            assert 0.0 <= row["group_fidelity_by_time"] <= 1.0
            assert row.get("object") is None

    def test_builder_groups_fluent_path(self):
        outcome = (
            SimulationBuilder()
            .workload("poisson", "a", "b", rate_per_hour=12.0, hours=4.0)
            .policy("limd", delta=_DELTA)
            .groups([GroupConfig("pair", ("a", "b"), _DELTA)])
            .seed(3)
            .run()
        )
        groups = [
            row["group"]
            for row in outcome.results.to_records()
            if row.get("group") is not None
        ]
        assert groups == ["pair"]

    def test_unknown_member_rejected_at_run(self):
        config = SimulationConfig.from_dict(
            {
                "workload": _poisson_workload(),
                "groups": {
                    "groups": [
                        {
                            "group_id": "g",
                            "members": ["a", "ghost"],
                            "mutual_delta": _DELTA,
                        }
                    ]
                },
            }
        )
        with pytest.raises(SimulationConfigError, match="ghost"):
            run_simulation(config)

