"""SimulationBuilder, run_simulation, Registry, and `repro run` CLI tests."""

from __future__ import annotations

import inspect
import json
import math
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
from repro.api.workloads import (
    WORKLOAD_SOURCES,
    register_workload_source,
    resolve_workload,
    workload_source_names,
)
from repro.cli import main
from repro.consistency.base import fixed_policy_factory
from repro.core.types import ObjectId
from repro.traces.model import UpdateTrace


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
        # One record of a run (the fetch log) and one seam to watch one
        # (poll observers): nothing takes a log to fill.
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
        with pytest.raises(SimulationConfigError, match="teleport"):
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
        assert set(workload_source_names()) == {"news", "poisson", "stocks"}

    def test_own_trace_runs_as_a_registered_source(self, monkeypatch):
        # A user's own trace (say, reduced from an access log) is two
        # columns per object; a registered source hands them over.
        monkeypatch.setattr(WORKLOAD_SOURCES, "_items", dict(WORKLOAD_SOURCES._items))
        columns = {
            "page": ([100.0, 1000.0, 2000.0], None),
            "quote": ([50.0, 700.0], [10.0, 12.5]),
        }

        def from_columns(objects, seed, params):
            return [
                UpdateTrace(ObjectId(key), *columns[key], end_time=3600.0)
                for key in objects
            ]

        register_workload_source("test-own-columns", from_columns)
        outcome = (
            SimulationBuilder()
            .workload("test-own-columns", "page", "quote")
            .policy("baseline", delta=600.0)
            .fidelity_delta(600.0)
            .run()
        )
        rows = {row["object"]: row for row in outcome.results.to_records()}
        assert {key: rows[key]["updates"] for key in columns} == {
            "page": 3,
            "quote": 2,
        }
        assert all(row["fidelity_by_violations"] == 1.0 for row in rows.values())

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
        # Out-of-range values and unknown names, at the top and per level.
        base = _tiny_builder().build().to_dict()
        for name, params in (
            ("limd", {"delta": math.nan}),
            ("limd", {"delta": -1.0}),
            ("limd", {"delta": 600.0, "ttr_max": 60.0}),
            ("alex", {"ttr_min": 60.0, "ttr_max": 600.0, "update_threshold": 2}),
            ("no_such_policy", {}),
            ("limd", {"delta": 600.0, "ttr_max": math.nan}),
            ("baseline", {"delta": math.nan}),
        ):
            policy = {"name": name, "params": params}
            for config in (
                SimulationConfig.from_dict({**base, "policy": policy}),
                SimulationConfig.from_dict(
                    {
                        **base,
                        "topology": {"kind": "tree", "levels": [{"policy": policy}]},
                    }
                ),
            ):
                with pytest.raises(
                    SimulationConfigError, match=f"policy {name!r}"
                ):
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

    @pytest.mark.parametrize("hours", [math.nan, math.inf])
    def test_non_finite_poisson_hours_are_a_config_error(self, hours):
        # Both once made the Poisson generator loop forever.
        config = (
            _tiny_builder()
            .workload("poisson", "obj", rate_per_hour=1.0, hours=hours)
            .build()
        )
        with pytest.raises(SimulationConfigError, match="hours"):
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


def _fresh_python(*args: str) -> subprocess.CompletedProcess[str]:
    """Run a fresh interpreter on this checkout's ``repro`` package."""
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": source_root},
        capture_output=True,
        text=True,
        timeout=60,
    )


#: Module-name prefixes of the process-pool machinery.
_POOL_MODULES = ("concurrent.futures", "multiprocessing")


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
        fresh = _fresh_python("-c", code)
        assert (fresh.returncode, fresh.stdout.strip()) == (0, "[]"), fresh.stderr

    def test_a_serial_run_loads_no_process_pool(self):
        """The pool machinery is imported on the first batch that fans
        out: importing the e2e/CLI roots and running serially loads none
        of it, and a real fan-out still works afterwards."""
        code = (
            "import pkgutil, sys, repro.api\n"
            "for info in pkgutil.iter_modules(repro.api.__path__, 'repro.api.'):\n"
            "    __import__(info.name)\n"
            "import repro.scenarios.registry\n"
            "from repro.api import SimulationConfig, WorkloadConfig, run_simulation\n"
            "from repro.api.executors import ParallelExecutor\n"
            "from repro.scenarios.engine import run_scenario\n"
            f"pool = {_POOL_MODULES!r}\n"
            "def loaded():\n"
            "    return sorted(name for name in sys.modules if name.startswith(pool))\n"
            "run_simulation(SimulationConfig(workload=WorkloadConfig(\n"
            "    source='poisson', objects=('a',),\n"
            "    params={'rate_per_hour': 6.0, 'hours': 1.0}), horizon_s=3600.0))\n"
            "assert len(run_scenario('figure3', values=(10.0,)).rows) == 1\n"
            "assert ParallelExecutor(2).map(abs, [-5]) == [5]\n"
            "print(loaded())\n"
            "print(ParallelExecutor(2).map(abs, [-1, -2, -3]))\n"
            "print('concurrent.futures.process' in loaded())\n"
        )
        fresh = _fresh_python("-c", code)
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout.split("\n")[:3] == ["[]", "[1, 2, 3]", "True"]

    def test_the_cli_lists_scenarios_without_a_process_pool(self):
        fresh = _fresh_python("-X", "importtime", "-m", "repro", "scenarios", "list")
        assert fresh.returncode == 0, fresh.stderr
        assert "figure3" in fresh.stdout
        # -X importtime logs one "import time: ... | <name>" line per import.
        imported = [
            line.rsplit("|", 1)[-1].strip() for line in fresh.stderr.splitlines()
        ]
        assert "repro.scenarios.registry" in imported
        assert [name for name in imported if name.startswith(_POOL_MODULES)] == []


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
