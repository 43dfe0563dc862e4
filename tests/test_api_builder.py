"""SimulationBuilder, run_simulation, Registry, and `repro run` CLI tests."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import repro

from repro.api import (
    LevelConfig,
    Registry,
    RegistryError,
    SimulationBuilder,
    SimulationConfig,
    SimulationConfigError,
    run_individual,
    run_simulation,
)
from repro.api.workloads import resolve_workload, workload_source_names
from repro.cli import main
from repro.consistency.base import fixed_policy_factory
from repro.core.errors import PolicyConfigurationError


def _tiny_builder() -> SimulationBuilder:
    return (
        SimulationBuilder()
        .workload("poisson", "obj", rate_per_hour=30.0, hours=6.0)
        .policy("baseline", delta=600.0)
        .fidelity_delta(600.0)
        .seed(7)
    )


class TestBuilder:
    def test_fluent_chain_builds_expected_config(self):
        config = (
            SimulationBuilder()
            .workload("news", "cnn_fn", "nyt_ap")
            .policy("limd", delta=600.0, ttr_max=3600.0)
            .topology("tree", levels=[LevelConfig(), LevelConfig(fan_out=3)])
            .network(5.0, jitter_s=1.0)
            .seed(42)
            .horizon(7200.0)
            .fidelity_delta(600.0)
            .history(supports=True, want=False)
            .build()
        )
        assert config.workload.objects == ("cnn_fn", "nyt_ap")
        assert config.policy.params["ttr_max"] == 3600.0
        assert config.topology.levels[1].fan_out == 3
        assert config.network.one_way_latency_s == 5.0
        assert config.seed == 42
        assert config.horizon_s == 7200.0
        assert not config.want_history

    def test_no_entry_point_takes_an_event_log(self):
        # One record of a run (the fetch log) and two seams to watch one
        # (poll observers, update listeners): nothing takes a log to fill.
        from repro.api import runs
        from repro.proxy.proxy import ProxyCache
        from repro.server.origin import OriginServer
        from repro.topology.tree import TopologyTree

        entry_points = [
            OriginServer,
            ProxyCache,
            TopologyTree,
            runs.build_core,
            runs.build_stack,
            runs.run_individual,
            runs.run_mutual_temporal,
            runs.run_mutual_value_adaptive,
            runs.run_mutual_value_partitioned,
        ]
        for entry_point in entry_points:
            parameters = inspect.signature(entry_point).parameters
            assert not {"event_log", "log_events"} & set(parameters), entry_point
        assert not hasattr(SimulationBuilder, "log_events")
        assert "event_log" not in {f.name for f in fields(runs.RunResult)}

    def test_run_layer_takes_only_what_some_caller_passes(self):
        # Whole parameter lists, so a seam nobody passes cannot return
        # under any name; one coordinator slot whatever the run attached.
        from repro.api import runs
        from repro.api.executors import executor_for

        def names(function):
            return list(inspect.signature(function).parameters)

        assert names(runs.build_stack) == [
            "traces", "supports_history", "want_history", "latency"
        ]
        assert names(runs.run_many) == ["tasks", "workers"]
        assert names(executor_for) == ["workers"]
        assert [f.name for f in fields(runs.RunResult)] == [
            "kernel", "server", "proxy", "traces", "coordinator"
        ]

    def test_bare_section_calls_yield_the_section_defaults(self):
        # The builder declares no default of its own: it forwards what
        # the caller passed and the section dataclass supplies the rest.
        from repro.api.config import (
            CacheConfig,
            GroupsConfig,
            NetworkConfig,
            PolicyConfig,
            TopologyConfig,
            WorkloadConfig,
        )

        fresh = (
            SimulationBuilder()
            .workload(WorkloadConfig().source)
            .policy(PolicyConfig().name)
            .topology(TopologyConfig().kind)
            .build()
        )
        assert fresh.workload == WorkloadConfig()
        assert fresh.policy == PolicyConfig()
        assert fresh.topology == TopologyConfig()
        tree = SimulationBuilder().topology("tree", levels=[{}]).build()
        assert tree.topology == TopologyConfig(kind="tree", levels=[{}])
        # These three replace their whole section, so a bare call also
        # resets one that was set away from every default.
        moved = (
            SimulationBuilder()
            .network(2.0, jitter_s=1.0)
            .cache(3, default_ttl_s=9.0)
            .groups(edges=[("a", "b")], mode="heuristic", component_delta=1.0)
        )
        bare = moved.network().cache().groups().build()
        assert bare.network == NetworkConfig()
        assert bare.cache == CacheConfig()
        assert bare.groups == GroupsConfig()

    def test_builder_from_existing_config_overrides(self):
        base = _tiny_builder().build()
        derived = SimulationBuilder(base).seed(11).build()
        assert derived.seed == 11
        assert derived.workload == base.workload

    def test_build_output_round_trips(self):
        config = _tiny_builder().build()
        assert SimulationConfig.from_json(config.to_json()) == config

    def test_topology_levels_inherited_while_kind_stays_tree(self):
        # Omitted levels inherit while the kind stays tree.
        levels = [LevelConfig(fan_out=1), LevelConfig(fan_out=2)]
        builder = _tiny_builder().topology("tree", levels=levels)
        config = builder.topology("tree").build()
        assert config.topology.levels == tuple(levels)

    def test_tree_horizon_shorter_than_warm_up_rejected(self):
        # Latent links defer deep-level registration; a horizon inside
        # that warm-up can never produce rows for the deep nodes.
        builder = (
            _tiny_builder()
            .topology(
                "tree",
                levels=[LevelConfig(fan_out=1), LevelConfig(fan_out=2)],
            )
            .network(0.05)
            .horizon(0.05)
        )
        with pytest.raises(SimulationConfigError, match="warm-up"):
            builder.run()

    def test_hierarchy_horizon_shorter_than_warm_up_rejected(self):
        # A parent with edges behind a slow link: the edges' deferred
        # registration outlasts the horizon.
        builder = (
            _tiny_builder()
            .topology("tree", levels=[LevelConfig(), LevelConfig(fan_out=2)])
            .network(60.0)
            .horizon(100.0)
        )
        with pytest.raises(SimulationConfigError, match="warm-up"):
            builder.run()

    def test_topology_levels_reset_when_kind_changes(self):
        levels = [LevelConfig(fan_out=1)]
        builder = _tiny_builder().topology("tree", levels=levels)
        config = builder.topology("single").build()
        assert config.topology.kind == "single"
        assert config.topology.levels == ()


class TestRunSimulation:
    def test_matches_direct_run_individual(self):
        config = _tiny_builder().build()
        outcome = run_simulation(config)
        traces = resolve_workload(config.workload, config.seed)
        direct = run_individual(traces, fixed_policy_factory(600.0))
        assert outcome.run.total_polls == direct.total_polls
        (row,) = outcome.results.to_records()
        assert row["polls"] == direct.polls_of(traces[0].object_id)
        assert row["node"] == "proxy"
        assert row["updates"] == traces[0].update_count

    def test_deterministic_in_seed(self):
        config = _tiny_builder().build()
        first = run_simulation(config).results.to_json()
        second = run_simulation(config).results.to_json()
        assert first == second
        other = run_simulation(config.with_seed(8)).results.to_json()
        assert other != first

    def test_hierarchy_reports_parent_and_edges(self):
        config = (
            _tiny_builder()
            .topology("tree", levels=[LevelConfig(), LevelConfig(fan_out=2)])
            .build()
        )
        outcome = run_simulation(config)
        nodes = outcome.results.column("node")
        assert nodes == ["L0.N0", "L1.N0", "L1.N1"]
        assert len(outcome.edges) == 2

    def test_fidelity_skipped_without_delta(self):
        config = _tiny_builder().fidelity_delta(None).build()
        (row,) = run_simulation(config).results.to_records()
        assert row["fidelity_by_time"] is None
        assert row["fidelity_by_violations"] is None
        assert row["polls"] > 0

    def test_unknown_policy_rejected(self):
        config = _tiny_builder().policy("teleport").build()
        with pytest.raises(PolicyConfigurationError, match="teleport"):
            run_simulation(config)

    def test_unknown_source_rejected(self):
        config = _tiny_builder().workload("tea-leaves", "obj").build()
        with pytest.raises(SimulationConfigError, match="tea-leaves"):
            run_simulation(config)

    def test_unknown_trace_key_rejected(self):
        config = _tiny_builder().workload("news", "bbc").build()
        with pytest.raises(SimulationConfigError, match="bbc"):
            run_simulation(config)

    def test_builtin_sources_registered(self):
        assert {"news", "stocks", "poisson"} <= set(workload_source_names())

    def test_default_config_is_runnable(self):
        outcome = run_simulation(SimulationConfig())
        assert outcome.run.total_polls > 0

    def test_bad_policy_params_are_a_config_error(self):
        config = _tiny_builder().policy("limd").build()  # delta missing
        with pytest.raises(SimulationConfigError, match="policy 'limd'"):
            run_simulation(config)
        config = _tiny_builder().policy("baseline", delta=600.0, bogus=1).build()
        with pytest.raises(SimulationConfigError, match="bogus"):
            run_simulation(config)
        for parameters in ({"nope": 1}, 3):
            config = (
                _tiny_builder()
                .policy("limd", delta=600.0, parameters=parameters)
                .build()
            )
            with pytest.raises(SimulationConfigError, match="policy 'limd'"):
                run_simulation(config)

    def test_policy_parameters_may_be_a_json_mapping(self):
        # A config file can only spell LimdParameters as a mapping.
        def rows(**params):
            builder = SimulationBuilder().fidelity_delta(600.0)
            outcome = builder.policy("limd", delta=600.0, **params).run()
            return outcome.results.to_records()

        paper = {"linear_increase": 0.2, "epsilon": 0.02}
        assert rows(parameters=paper) == rows()
        assert rows(parameters={**paper, "linear_increase": 0.5}) != rows()

    def test_bad_workload_params_are_a_config_error(self):
        config = (
            _tiny_builder()
            .workload("poisson", "obj", rate_per_hour=[1])
            .build()
        )
        with pytest.raises(SimulationConfigError, match="poisson"):
            run_simulation(config)

    def test_network_jitter_perturbs_results_deterministically(self):
        still = (
            _tiny_builder().network(30.0, jitter_s=0.0).run().results.to_json()
        )
        jittery = _tiny_builder().network(30.0, jitter_s=20.0)
        first = jittery.run().results.to_json()
        assert first != still  # jitter actually reaches the link model
        assert jittery.run().results.to_json() == first  # seeded, stable


class TestRunSimulationTree:
    def test_tree_reports_one_row_per_node(self):
        config = (
            _tiny_builder()
            .topology(
                "tree",
                levels=[
                    {"fan_out": 1},
                    {"fan_out": 2},
                    {"fan_out": 2},
                ],
            )
            .build()
        )
        outcome = run_simulation(config)
        nodes = outcome.results.column("node")
        assert nodes == [
            "L0.N0",
            "L1.N0",
            "L1.N1",
            "L2.N0",
            "L2.N1",
            "L2.N2",
            "L2.N3",
        ]
        assert outcome.tree is not None
        assert outcome.tree.node_count == 7
        assert len(outcome.edges) == 4
        assert outcome.run.proxy is outcome.tree.root.proxy

    def test_hybrid_push_root_runs_passively(self):
        config = (
            _tiny_builder()
            .topology(
                "tree",
                levels=[{"fan_out": 1, "mode": "push"}, {"fan_out": 2}],
            )
            .build()
        )
        outcome = run_simulation(config)
        rows = outcome.results.to_records()
        root_row = rows[0]
        # The push root fetches once per update plus the initial fetch.
        assert root_row["polls"] == root_row["updates"] + 1
        assert root_row["fidelity_by_time"] == 1.0
        assert outcome.tree is not None
        assert outcome.tree.push_notifications() == root_row["updates"]

    def test_per_level_policy_override(self):
        config = (
            _tiny_builder()
            .topology(
                "tree",
                levels=[
                    {"fan_out": 1},
                    {
                        "fan_out": 1,
                        "policy": {
                            "name": "baseline",
                            "params": {"delta": 60.0},
                        },
                    },
                ],
            )
            .build()
        )
        outcome = run_simulation(config)
        rows = outcome.results.to_records()
        # The edge polls its parent 10x more often than the parent
        # polls the origin (delta 60 s vs the top-level 600 s).
        assert rows[1]["polls"] > 5 * rows[0]["polls"]

    def test_tree_deterministic_in_seed(self):
        config = (
            _tiny_builder()
            .topology("tree", levels=[{"fan_out": 1}, {"fan_out": 3}])
            .build()
        )
        first = run_simulation(config).results.to_json()
        assert run_simulation(config).results.to_json() == first
        assert run_simulation(config.with_seed(9)).results.to_json() != first

    def test_push_level_with_policy_rejected_at_config_time(self):
        with pytest.raises(SimulationConfigError, match="push"):
            _tiny_builder().topology(
                "tree",
                levels=[
                    {
                        "fan_out": 1,
                        "mode": "push",
                        "policy": {"name": "baseline", "params": {}},
                    }
                ],
            )


class TestRunCli:
    @pytest.fixture
    def config_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(_tiny_builder().build().to_json())
        return str(path)

    def test_table_output(self, config_path, capsys):
        assert main(["run", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "polls" in out
        assert "baseline" in out

    def test_json_output_is_result_set(self, config_path, capsys):
        assert main(["run", "--config", config_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"][:2] == ["node", "object"]
        assert payload["rows"][0]["object"] == "obj"

    def test_csv_output(self, config_path, capsys):
        assert main(["run", "--config", config_path, "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("node,object,updates,polls")
        assert len(lines) == 2

    def test_seed_override_changes_rows(self, config_path, capsys):
        assert main(["run", "--config", config_path, "--json"]) == 0
        base = capsys.readouterr().out
        assert main(["run", "--config", config_path, "--seed", "8", "--json"]) == 0
        assert capsys.readouterr().out != base

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["run", "--config", str(path)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"surprise": 1}')
        assert main(["run", "--config", str(path)]) == 2
        assert "invalid simulation configuration" in capsys.readouterr().err

    def test_bad_policy_params_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad_params.json"
        path.write_text(
            _tiny_builder().policy("limd", bogus=1).build().to_json()
        )
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid simulation configuration" in err
        assert "bogus" in err


class TestLayering:
    def test_the_facade_imports_nothing_above_it(self):
        """``scenarios`` and ``experiments`` build on ``repro.api``, never
        the reverse; checked in a fresh interpreter because this one has
        long since imported both."""
        code = (
            "import pkgutil, sys, repro.api\n"
            "for info in pkgutil.iter_modules(repro.api.__path__, 'repro.api.'):\n"
            "    __import__(info.name)\n"
            "above = ('repro.experiments', 'repro.scenarios')\n"
            "print(sorted(name for name in sys.modules if name.startswith(above)))\n"
        )
        source_root = str(Path(repro.__file__).resolve().parent.parent)
        fresh = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": source_root},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (fresh.returncode, fresh.stdout.strip()) == (0, "[]"), fresh.stderr


class TestRegistry:
    def test_register_get_names(self):
        reg: Registry[int] = Registry("gadget")
        reg.register("b", 2)
        reg.register("a", 1)
        assert reg.get("a") == 1
        assert reg.names() == ["a", "b"]
        assert reg.items() == [("a", 1), ("b", 2)]
        assert "a" in reg and "c" not in reg
        assert len(reg) == 2
        assert list(reg) == ["a", "b"]

    def test_duplicate_rejected(self):
        reg: Registry[int] = Registry("gadget")
        reg.register("a", 1)
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("a", 2)

    def test_unknown_lists_known_names(self):
        reg: Registry[int] = Registry("gadget")
        reg.register("alpha", 1)
        with pytest.raises(RegistryError, match="alpha"):
            reg.get("beta")

    def test_custom_error_factory(self):
        class Boom(Exception):
            pass

        reg: Registry[int] = Registry(
            "gadget", error_factory=lambda name, known: Boom(name)
        )
        with pytest.raises(Boom):
            reg.get("zap")

    def test_lazy_loader_runs_once_before_first_read(self):
        calls = []

        def load() -> None:
            calls.append(1)
            reg.register("late", 9)

        reg: Registry[int] = Registry("gadget", loader=load)
        assert not calls  # construction does not load
        assert reg.get("late") == 9
        assert reg.names() == ["late"]
        assert calls == [1]
