"""Unit tests for the command-line interface."""

from __future__ import annotations

import importlib.util
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
