"""CLI tests for the ``repro scenarios`` command group."""

from __future__ import annotations

import json

import pytest

from repro.api.executors import ParallelExecutor
from repro.cli import main
from repro.core.errors import WorkerDiedError


class TestList:
    def test_lists_every_registered_scenario(self, capsys):
        from repro.scenarios.registry import SCENARIOS

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS.names():
            assert name in out

    def test_mentions_run_hint(self, capsys):
        assert main(["scenarios", "list"]) == 0
        assert "scenarios run" in capsys.readouterr().out


class TestDescribe:
    def test_describe_shows_axis_and_params(self, capsys):
        assert main(["scenarios", "describe", "failure_churn"]) == 0
        out = capsys.readouterr().out
        assert "mean_uptime_min" in out
        assert "mean_downtime_min" in out

    def test_unknown_name_exits_2(self, capsys):
        assert main(["scenarios", "describe", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "figure3" in err  # the known names are listed


class TestRun:
    def test_run_prints_table(self, capsys):
        assert main(["scenarios", "run", "table3"]) == 0
        out = capsys.readouterr().out
        assert "AT&T" in out
        assert "Yahoo" in out

    def test_run_with_values_override(self, capsys):
        assert (
            main(["scenarios", "run", "figure3", "--values", "10"]) == 0
        )
        out = capsys.readouterr().out
        assert "limd_polls" in out

    def test_run_with_params_override(self, capsys):
        assert (
            main(
                [
                    "scenarios",
                    "run",
                    "ablation_history",
                    "--params",
                    "trace=cnn_fn",
                ]
            )
            == 0
        )
        assert "detection" in capsys.readouterr().out

    def test_run_json_output(self, capsys):
        assert (
            main(
                ["scenarios", "run", "table2", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["name"] == "table2"
        assert payload["rows"]
        assert payload["rows"][0]["key"] == "cnn_fn"

    def test_run_workers_matches_serial(self, capsys):
        assert main(["scenarios", "run", "table2"]) == 0
        serial = capsys.readouterr().out
        assert main(["scenarios", "run", "table2", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenarios", "run", "no_such"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_param_exits_2(self, capsys):
        assert (
            main(["scenarios", "run", "figure3", "--params", "bogus=1"]) == 2
        )
        err = capsys.readouterr().err
        assert "invalid scenario configuration" in err
        assert "bogus" in err

    def test_bad_param_value_exits_2(self, capsys):
        """Valid key, invalid value: clean exit, no traceback."""
        assert (
            main(
                ["scenarios", "run", "figure3", "--params", "trace=bogus"]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "invalid scenario configuration" in err
        assert "bogus" in err

    def test_malformed_param_exits_2(self, capsys):
        assert (
            main(["scenarios", "run", "figure3", "--params", "noequals"])
            == 2
        )
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenarios", "run", "table2", "--workers", "2"],
            ["figure3", "--workers", "2"],
        ],
    )
    def test_dead_worker_is_a_failed_run_not_a_bad_configuration(
        self, argv, capsys, monkeypatch
    ):
        def dead_pool(self, fn, items):
            raise WorkerDiedError(
                "a worker process died before every point finished; "
                "the first unfinished is item 1: 'nyt_ap'"
            )

        monkeypatch.setattr(ParallelExecutor, "map", dead_pool)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("run failed: a worker process died")
        assert "item 1" in captured.err
        assert "invalid scenario configuration" not in captured.err
        assert captured.out == ""

    def test_missing_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenarios"])
        assert excinfo.value.code != 0

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "run", "table2", "--workers", "0"])


class TestClassicCommandsAreScenarioRuns:
    """``repro <artefact>`` is ``repro scenarios run <artefact>``."""

    @pytest.mark.parametrize(
        "classic, scenario",
        [
            (
                ["figure3", "--trace", "guardian"],
                ["figure3", "--params", "trace=guardian"],
            ),
            (
                ["figure5", "--pair", "guardian", "cnn_fn"],
                ["figure5", "--params", 'pair=["guardian","cnn_fn"]'],
            ),
            (
                ["hierarchy", "--trace", "nyt_ap"],
                ["hierarchy", "--params", "trace=nyt_ap"],
            ),
            (["table3", "--seed", "7"], ["table3", "--seed", "7"]),
        ],
    )
    def test_output_equals_scenarios_run(self, classic, scenario, capsys):
        assert main(classic) == 0
        classic_out = capsys.readouterr().out
        assert main(["scenarios", "run", *scenario]) == 0
        assert capsys.readouterr().out == classic_out

    def test_heading_names_the_trace_that_ran(self, capsys):
        assert main(["figure3", "--trace", "guardian"]) == 0
        heading = capsys.readouterr().out.splitlines()[0]
        assert "guardian" in heading
        for other in ("CNN", "cnn_fn", "nyt_ap", "nyt_reuters"):
            assert other not in heading

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure5", "--pair", "bbc", "cnn_fn"],
            ["figure6", "--pair-fig6", "bbc", "nyt_ap"],
        ],
    )
    def test_unknown_trace_key_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario configuration:")
        assert "bbc" in err

    def test_ablations_prints_all_seven(self, capsys):
        assert main(["ablations"]) == 0
        out = capsys.readouterr().out
        assert out.count("Ablation: ") == 7


class TestClassicCliUnaffected:
    def test_experiment_list_mentions_scenarios_group(self, capsys):
        assert main(["list"]) == 0
        assert "scenarios list" in capsys.readouterr().out

    def test_unknown_experiment_still_exits_2(self, capsys):
        assert main(["figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
