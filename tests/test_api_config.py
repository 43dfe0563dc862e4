"""SimulationConfig round-trip and rejection tests (incl. hypothesis)."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import (
    CacheConfig,
    LevelConfig,
    NetworkConfig,
    PolicyConfig,
    SimulationConfig,
    SimulationConfigError,
    TopologyConfig,
    WorkloadConfig,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=12
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=16),
)
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(_names, children, max_size=3),
    ),
    max_leaves=8,
)
_params = st.dictionaries(_names, _json_values, max_size=4)

_workloads = st.builds(
    WorkloadConfig,
    source=_names,
    objects=st.lists(_names, min_size=1, max_size=4, unique=True).map(tuple),
    params=_params,
)
_policies = st.builds(PolicyConfig, name=_names, params=_params)
_networks = st.floats(
    min_value=0.0, max_value=600.0, allow_nan=False, width=64
).flatmap(
    lambda one_way: st.builds(
        NetworkConfig,
        one_way_latency_s=st.just(one_way),
        jitter_s=st.floats(
            min_value=0.0, max_value=one_way, allow_nan=False, width=64
        ),
    )
)
_levels = st.builds(
    LevelConfig,
    fan_out=st.integers(min_value=1, max_value=8),
    policy=st.one_of(st.none(), _policies),
    network=st.one_of(st.none(), _networks),
)
_topologies = st.one_of(
    st.just(TopologyConfig()),
    st.builds(
        TopologyConfig,
        kind=st.just("tree"),
        levels=st.lists(_levels, min_size=1, max_size=3).map(tuple),
    ),
)
_positive_durations = st.floats(
    min_value=0.001, max_value=1e9, allow_nan=False, width=64
)
_optional_durations = st.one_of(st.none(), _positive_durations)
_caches = st.builds(
    CacheConfig,
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
    ttl_classes=st.dictionaries(_names, _positive_durations, max_size=3),
    default_ttl_s=_optional_durations,
    object_classes=st.dictionaries(_names, _names, max_size=3),
)
_configs = st.builds(
    SimulationConfig,
    workload=_workloads,
    policy=_policies,
    topology=_topologies,
    network=_networks,
    cache=_caches,
    seed=st.integers(min_value=-(10**12), max_value=10**12),
    horizon_s=_optional_durations,
    fidelity_delta_s=_optional_durations,
    supports_history=st.booleans(),
    want_history=st.booleans(),
)


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(config=_configs)
    def test_parse_serialize_parse_identity(self, config):
        parsed = SimulationConfig.from_json(config.to_json())
        assert parsed == config
        # And a second cycle is byte-stable (serialization normalised).
        assert parsed.to_json() == config.to_json()

    @settings(max_examples=100, deadline=None)
    @given(config=_configs)
    def test_to_dict_is_pure_json(self, config):
        encoded = json.dumps(config.to_dict())
        assert SimulationConfig.from_dict(json.loads(encoded)) == config

    def test_defaults_round_trip(self):
        config = SimulationConfig()
        assert SimulationConfig.from_json(config.to_json()) == config

    def test_list_params_survive_as_lists(self):
        config = SimulationConfig(
            policy=PolicyConfig(name="limd", params={"grid": [1, 2, 3]})
        )
        data = json.loads(config.to_json())
        assert data["policy"]["params"]["grid"] == [1, 2, 3]
        assert SimulationConfig.from_json(config.to_json()) == config

    def test_sub_configs_accept_nested_mappings(self):
        config = SimulationConfig.from_dict(
            {
                "workload": {"source": "news", "objects": ["cnn_fn"]},
                "policy": {"name": "baseline", "params": {"delta": 600.0}},
            }
        )
        assert isinstance(config.workload, WorkloadConfig)
        assert config.policy.params["delta"] == 600.0


# ----------------------------------------------------------------------
# Rejection
# ----------------------------------------------------------------------


#: Every float field of a config, as (path in the JSON, name in errors).
_FLOAT_FIELDS = [
    (("network", "one_way_latency_s"), "network.one_way_latency_s"),
    (("network", "jitter_s"), "network.jitter_s"),
    (
        ("topology", "levels", 0, "network", "one_way_latency_s"),
        "network.one_way_latency_s",
    ),
    (("cache", "ttl_classes", "hot"), "cache.ttl_classes['hot']"),
    (("cache", "default_ttl_s"), "cache.default_ttl_s"),
    (("groups", "groups", 0, "mutual_delta"), "group.mutual_delta"),
    (("groups", "component_delta"), "groups.component_delta"),
    (("groups", "rate_ratio_threshold"), "groups.rate_ratio_threshold"),
    (("horizon_s",), "simulation.horizon_s"),
    (("fidelity_delta_s",), "simulation.fidelity_delta_s"),
]


class TestRejection:
    def test_unknown_top_level_field(self):
        # "log_events" was a field until the event log was deleted: a
        # saved config that carries it is rejected, not silently ignored.
        for name, value in (("surprise", 1), ("log_events", False)):
            data = SimulationConfig().to_dict()
            data[name] = value
            with pytest.raises(SimulationConfigError, match=name):
                SimulationConfig.from_dict(data)

    @pytest.mark.parametrize(
        "section", ["workload", "policy", "topology", "network"]
    )
    def test_unknown_sub_config_field(self, section):
        data = SimulationConfig().to_dict()
        data[section]["surprise"] = 1
        with pytest.raises(SimulationConfigError, match="surprise"):
            SimulationConfig.from_dict(data)

    def test_bad_seed_type(self):
        with pytest.raises(SimulationConfigError, match="seed"):
            SimulationConfig(seed="tuesday")  # type: ignore[arg-type]

    def test_bool_is_not_an_int_seed(self):
        with pytest.raises(SimulationConfigError, match="seed"):
            SimulationConfig(seed=True)  # type: ignore[arg-type]

    def test_bad_objects_shape(self):
        with pytest.raises(SimulationConfigError, match="objects"):
            WorkloadConfig(objects="cnn_fn")  # type: ignore[arg-type]

    def test_empty_objects_rejected(self):
        with pytest.raises(SimulationConfigError, match="non-empty"):
            WorkloadConfig(objects=())

    def test_duplicate_objects_rejected(self):
        with pytest.raises(
            SimulationConfigError, match="workload.objects names 'cnn_fn'"
        ):
            SimulationConfig.from_dict(
                {"workload": {"objects": ["cnn_fn", "nyt_ap", "cnn_fn"]}}
            )

    def test_non_jsonable_param_rejected(self):
        with pytest.raises(SimulationConfigError, match="non-JSON"):
            PolicyConfig(name="limd", params={"fn": object()})

    def test_unknown_topology_kind(self):
        with pytest.raises(SimulationConfigError, match="kind"):
            TopologyConfig(kind="ring")

    def test_hierarchy_kind_rejected(self):
        # "hierarchy" was a kind until it was folded into two-level
        # trees: a saved config naming it fails the kind check.
        with pytest.raises(SimulationConfigError, match="kind"):
            TopologyConfig.from_dict({"kind": "hierarchy"})

    def test_cache_eviction_rejected(self):
        # Bounded caches are LRU; "eviction" named one of four policies
        # until the other three were deleted, and is now an unknown field.
        with pytest.raises(SimulationConfigError, match="eviction"):
            SimulationConfig.from_dict({"cache": {"eviction": "lru"}})

    def test_tree_requires_levels(self):
        with pytest.raises(SimulationConfigError, match="levels"):
            TopologyConfig(kind="tree")

    def test_levels_rejected_outside_tree(self):
        with pytest.raises(SimulationConfigError, match="levels"):
            TopologyConfig(kind="single", levels=(LevelConfig(),))

    def test_edge_count_rejected_on_tree(self):
        # A tree's shape comes from levels; edge_count was a field of
        # the deleted hierarchy kind and is now an unknown field.
        for data in (
            {"kind": "tree", "edge_count": 8, "levels": [{}]},
            {"kind": "single", "edge_count": 4},
        ):
            with pytest.raises(SimulationConfigError, match="edge_count"):
                TopologyConfig.from_dict(data)

    def test_levels_must_be_a_sequence(self):
        with pytest.raises(SimulationConfigError, match="levels"):
            TopologyConfig(kind="tree", levels={"fan_out": 2})  # type: ignore[arg-type]

    def test_level_fan_out_validated(self):
        with pytest.raises(SimulationConfigError, match="fan_out"):
            LevelConfig(fan_out=0)

    def test_level_accepts_nested_mappings(self):
        topology = TopologyConfig(
            kind="tree",
            levels=(
                {"fan_out": 1},  # type: ignore[arg-type]
                {
                    "fan_out": 4,
                    "policy": {"name": "baseline", "params": {"delta": 60.0}},
                    "network": {"one_way_latency_s": 0.05},
                },
            ),
        )
        assert isinstance(topology.levels[1].policy, PolicyConfig)
        assert isinstance(topology.levels[1].network, NetworkConfig)

    def test_unknown_level_field_rejected(self):
        with pytest.raises(SimulationConfigError, match="surprise"):
            TopologyConfig(
                kind="tree",
                levels=({"fan_out": 2, "surprise": 1},),  # type: ignore[arg-type]
            )

    def test_saved_level_mode_is_an_unknown_field(self):
        # Every level polls its upstream; a config saved while levels
        # carried a pull/push ``mode`` is rejected, not reinterpreted.
        with pytest.raises(
            SimulationConfigError,
            match=re.escape(
                "unknown LevelConfig field(s): ['mode']; "
                "known: ['fan_out', 'network', 'policy']"
            ),
        ):
            TopologyConfig.from_dict(
                {"kind": "tree", "levels": [{"fan_out": 1, "mode": "pull"}]}
            )

    def test_non_tree_serialization_carries_only_the_kind(self):
        assert TopologyConfig().to_dict() == {"kind": "single"}

    def test_negative_latency(self):
        with pytest.raises(SimulationConfigError, match="one_way_latency_s"):
            NetworkConfig(one_way_latency_s=-1.0)

    def test_jitter_exceeding_latency(self):
        with pytest.raises(SimulationConfigError, match="jitter_s"):
            NetworkConfig(one_way_latency_s=1.0, jitter_s=2.0)

    def test_nonpositive_horizon(self):
        with pytest.raises(SimulationConfigError, match="horizon_s"):
            SimulationConfig(horizon_s=0.0)

    def test_bad_history_flag(self):
        with pytest.raises(SimulationConfigError, match="want_history"):
            SimulationConfig(want_history=1)  # type: ignore[arg-type]

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "path, name",
        _FLOAT_FIELDS,
        ids=[".".join(map(str, path)) for path, _ in _FLOAT_FIELDS],
    )
    def test_non_finite_float_field_rejected(self, path, name, bad):
        # NaN passes every range check, and a NaN or infinite horizon
        # or latency would hang the run: each float field refuses them.
        data = SimulationConfig().to_dict()
        data["workload"]["objects"] = ["a", "b"]
        data["topology"] = {
            "kind": "tree",
            "levels": [{"fan_out": 1, "network": {"one_way_latency_s": 1.0}}],
        }
        data["cache"].update(ttl_classes={"hot": 1.0}, default_ttl_s=1.0)
        data["groups"] = {
            "groups": [{"group_id": "g", "members": ["a", "b"], "mutual_delta": 1.0}],
            "component_delta": 1.0,
            "rate_ratio_threshold": 0.8,
        }
        data.update(horizon_s=1.0, fidelity_delta_s=1.0)
        SimulationConfig.from_json(json.dumps(data))  # finite: accepted
        holder = data
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = "@"
        text = json.dumps(data).replace('"@"', bad)
        with pytest.raises(SimulationConfigError, match=re.escape(name)):
            SimulationConfig.from_json(text)

    def test_invalid_json_text(self):
        with pytest.raises(SimulationConfigError, match="invalid config JSON"):
            SimulationConfig.from_json("{nope")

    def test_missing_required_sub_field(self):
        with pytest.raises(SimulationConfigError, match="mapping"):
            SimulationConfig.from_dict({"workload": "news"})
