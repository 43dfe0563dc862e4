"""Unit tests for the command-line interface."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.experiment == "table2"
        assert args.trace == "cnn_fn"
        assert args.pair == ("cnn_fn", "nyt_ap")

    def test_seed_option(self):
        args = build_parser().parse_args(["figure3", "--seed", "7"])
        assert args.seed == 7

    def test_pair_option(self):
        args = build_parser().parse_args(
            ["figure5", "--pair", "guardian", "nyt_ap"]
        )
        assert args.pair == ["guardian", "nyt_ap"]

    def test_invalid_trace_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure3", "--trace", "bbc"])

    def test_workers_option(self):
        args = build_parser().parse_args(["figure5", "--workers", "4"])
        assert args.workers == 4

    def test_workers_defaults_to_serial(self):
        assert build_parser().parse_args(["table2"]).workers is None

    def test_nonpositive_workers_rejected(self):
        for bad in ("0", "-2"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["figure3", "--workers", bad])


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure3" in out and "table2" in out

    def test_unknown_experiment_errors(self, capsys):
        # "lint" was a command group until the linter became plain tests.
        for name in ("figure99", "lint"):
            assert main([name]) == 2
            assert f"unknown experiment {name!r}" in capsys.readouterr().err

    def test_table2_prints_table(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "CNN" in out
        assert "Guardian" in out

    def test_table3_prints_table(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "AT&T" in out

    def test_table2_with_workers_matches_serial(self, capsys):
        assert main(["table2"]) == 0
        serial = capsys.readouterr().out
        assert main(["table2", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_run_config_with_workers_matches_serial(self, tmp_path, capsys):
        """``repro run --workers`` hands a sharded config its pool."""
        from repro.api import SimulationBuilder

        config = (
            SimulationBuilder()
            .workload("poisson", "a", "b", rate_per_hour=5.0, hours=1.0)
            .policy("static_ttl", ttl=200.0)
            .topology("tree", levels=[{"fan_out": 1}, {"fan_out": 4}])
            .seed(23)
            .shards(3)  # two shards run serially even with a pool
            .build()
        )
        path = tmp_path / "sharded.json"
        path.write_text(config.to_json())
        assert main(["run", "--config", str(path), "--csv"]) == 0
        serial = capsys.readouterr().out
        assert serial.count("\n") > 5
        assert main(["run", "--config", str(path), "--csv", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
        with pytest.raises(SystemExit):
            main(["run", "--config", str(path), "--workers", "0"])

    def test_figure4_runs(self, capsys):
        assert main(["figure4"]) == 0
        out = capsys.readouterr().out
        assert "TTR" in out

    def test_hierarchy_runs(self, capsys):
        assert main(["hierarchy"]) == 0
        out = capsys.readouterr().out
        assert "flat" in out and "hierarchy" in out
        assert "origin_requests" in out


REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    """Import ``tools/<name>.py`` (tools/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestApiReference:
    def test_api_md_is_in_sync_with_docstrings(self):
        """docs/API.md must match what tools/gen_api_md.py generates."""
        expected = _load_tool("gen_api_md").generate()
        actual = (REPO_ROOT / "docs" / "API.md").read_text()
        assert actual == expected, (
            "docs/API.md is stale; run `python tools/gen_api_md.py`"
        )


class TestLocTool:
    def test_counts_lines_and_code_per_package(self, tmp_path):
        """tools/loc.py: comments, blanks and docstrings are not code."""
        module = _load_tool("loc")
        (tmp_path / "pkg").mkdir()
        (tmp_path / "top.py").write_text('"""Doc."""\n\nX = 1  # note\n')
        (tmp_path / "pkg" / "mod.py").write_text(
            'def f():\n    """Two\n    lines."""\n    # comment\n'
            '    return (\n        1\n    )\n'
        )
        totals = module.count_tree(tmp_path)
        assert totals == {"(root)": [1, 3, 1], "pkg": [1, 7, 4]}
        assert "| **total** | 2 | 10 | 5 |" in module.render(totals)


class TestAbPairsVerdict:
    """tools/ab_pairs.py: the ten-pair rule on canned numbers."""

    PARENT = [119.4, 120.4, 117.8, 121.0, 118.9, 119.9, 120.1, 118.2, 119.0, 120.8]

    def judge(self, change, **kwargs):
        kwargs.setdefault("better", "higher")
        kwargs.setdefault("bound", 0.15)
        return _load_tool("ab_pairs").judge(self.PARENT, change, **kwargs)

    def test_clear_win_is_a_gain(self):
        verdict = self.judge([p * 1.38 for p in self.PARENT])
        assert (verdict.wins, verdict.losses) == (10, 0)
        assert verdict.gain and not verdict.regression
        assert verdict.word == "GAIN"
        assert verdict.ratio == pytest.approx(1.38)

    def test_nine_of_ten_wins_is_enough_eight_is_not(self):
        change = [p + 5.0 for p in self.PARENT]
        change[0] = self.PARENT[0] - 1.0
        assert self.judge(change).gain
        change[1] = self.PARENT[1] - 1.0
        verdict = self.judge(change)
        assert verdict.wins == 8 and not verdict.gain

    def test_ties_count_for_neither_side(self):
        change = [p + 5.0 for p in self.PARENT]
        change[0], change[1] = self.PARENT[0], self.PARENT[1]
        verdict = self.judge(change)
        assert (verdict.wins, verdict.losses) == (8, 0)
        assert not verdict.gain

    def test_gap_inside_the_parents_own_spread_is_no_gain(self):
        """Ten wins out of ten, but by less than the parent's IQR."""
        verdict = self.judge([p + 0.5 for p in self.PARENT])
        low, high = verdict.parent_quartiles
        assert verdict.wins == 10 and high - low > 0.5
        assert not verdict.gain and verdict.word == "no gain"

    def test_lower_is_better_flips_the_direction(self):
        slower = [p * 1.4 for p in self.PARENT]
        assert self.judge(slower, better="lower", bound=0.25).regression
        faster = [p * 0.7 for p in self.PARENT]
        verdict = self.judge(faster, better="lower", bound=0.25)
        assert verdict.gain and verdict.wins == 10

    def test_regression_needs_more_than_the_bound(self):
        assert not self.judge([p * 0.9 for p in self.PARENT]).regression
        verdict = self.judge([p * 0.8 for p in self.PARENT])
        assert verdict.regression and verdict.word == "REGRESSION"

    def test_per_pair_ratios_are_summarised(self):
        factors = [1.10, 0.90, 1.05, 1.20, 1.00, 0.95, 1.15, 1.30, 0.85, 1.25]
        verdict = self.judge([p * f for p, f in zip(self.PARENT, factors)])
        assert verdict.pair_ratio_median == pytest.approx(1.075)
        low, high = verdict.pair_ratio_quartiles
        assert (low, high) == (pytest.approx(0.9375), pytest.approx(1.2125))
        assert (verdict.wins, verdict.losses) == (6, 3)
        assert not verdict.gain and not verdict.regression

    def test_unpaired_samples_are_rejected(self):
        with pytest.raises(ValueError):
            self.judge(self.PARENT[:-1])


class TestAbPairsCore:
    """tools/ab_pairs.py: both sides run on one fixed core."""

    def test_the_highest_allowed_core_is_chosen(self, monkeypatch):
        module = _load_tool("ab_pairs")
        monkeypatch.setattr(module.os, "sched_setaffinity", print, raising=False)
        monkeypatch.setattr(
            module.os, "sched_getaffinity", lambda _pid: {5, 0, 2}, raising=False
        )
        assert module.pinned_core() == 5

    def test_no_pinning_where_affinity_is_unsupported(self, monkeypatch):
        module = _load_tool("ab_pairs")
        monkeypatch.delattr(module.os, "sched_setaffinity", raising=False)
        assert module.pinned_core() is None


class TestAbPairsWorkloads:
    """tools/ab_pairs.py: one run covers every workload of the benchmark."""

    def test_each_pair_runs_all_workloads_a_side_at_a_time(
        self, tmp_path, capsys, monkeypatch
    ):
        module = _load_tool("ab_pairs")
        change = str(tmp_path)
        (tmp_path / "BENCHMARK.json").write_text(
            json.dumps(
                {
                    "workloads": [{"name": "a"}, {"name": "b"}],
                    "end_to_end": [
                        {"name": "ops_per_s", "unit": "ops/s",
                         "better": "higher", "bound": 0.15}
                    ],
                }
            )
        )
        calls = []

        def run_once(checkout, workload, seed):
            calls.append((checkout, workload))
            return {
                "failed": int(workload == "b" and checkout == change),
                "metrics": {"ops_per_s": 100.0 + len(calls)},
                "digest": "d",
                "events": 1,
            }

        monkeypatch.setattr(module, "run_once", run_once)
        code = module.main(["--parent", "P", "--change", change, "--pairs", "2"])
        parent_side = [("P", "a"), ("P", "b")]
        change_side = [(change, "a"), (change, "b")]
        assert calls == parent_side + change_side + change_side + parent_side
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("# ")] == [
            "# a: 2 alternating pairs, seed default",
            "# b: 2 alternating pairs, seed default",
        ]
        assert out.count(", per pair x") == 2
        assert out.count("failed: parent 0, change 0") == 1
        assert "failed: parent 0, change 2" in out
        assert code == 1
        calls.clear()
        assert module.main(
            ["--parent", "P", "--change", change, "--pairs", "1", "--workload", "a"]
        ) == 0
        assert calls == [("P", "a"), (change, "a")]
