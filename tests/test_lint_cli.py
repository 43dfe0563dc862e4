"""The ``repro lint`` command-line entry point.

Exit-status contract: 0 when every finding is suppressed or baselined,
1 when new findings remain, 2 on usage errors (unknown paths, unknown
rule codes, bad baseline files).
"""

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

from repro.lint import PARSE_ERROR_CODE, iter_python_files
from repro.lint.cli import main

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent

FLAGGED = str(FIXTURES / "rl101" / "sim" / "flagged.py")
CLEAN = str(FIXTURES / "rl101" / "sim" / "clean.py")


class TestExitStatus(unittest.TestCase):
    def test_clean_tree_exits_zero(self):
        self.assertEqual(main([CLEAN, "--no-baseline"]), 0)

    def test_new_findings_exit_one(self):
        self.assertEqual(main([FLAGGED, "--no-baseline"]), 1)

    def test_missing_path_exits_two(self):
        self.assertEqual(
            main([str(FIXTURES / "no_such_dir"), "--no-baseline"]), 2
        )

    def test_unknown_rule_code_exits_two(self):
        self.assertEqual(main([CLEAN, "--select", "RL999"]), 2)

    def test_select_restricts_the_run(self):
        # The flagged RL101 fixture is clean under the RL2xx pack.
        self.assertEqual(
            main([FLAGGED, "--no-baseline", "--select", "RL201"]), 0
        )

    def test_malformed_baseline_exits_two(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "baseline.json"
            bad.write_text("{not json", encoding="utf-8")
            self.assertEqual(main([FLAGGED, "--baseline", str(bad)]), 2)


class TestBaselineFlow(unittest.TestCase):
    def test_write_baseline_then_rerun_is_green(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = Path(tmp) / "baseline.json"
            self.assertEqual(
                main([FLAGGED, "--baseline", str(baseline), "--write-baseline"]),
                0,
            )
            self.assertTrue(baseline.is_file())
            # Grandfathered findings no longer fail the run...
            self.assertEqual(main([FLAGGED, "--baseline", str(baseline)]), 0)
            # ...but they are not blanket immunity: a file with different
            # findings still fails against that baseline.
            other = str(FIXTURES / "rl102" / "sim" / "flagged.py")
            self.assertEqual(main([other, "--baseline", str(baseline)]), 1)

    def test_stale_entries_do_not_fail(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = Path(tmp) / "baseline.json"
            self.assertEqual(
                main([FLAGGED, "--baseline", str(baseline), "--write-baseline"]),
                0,
            )
            # Linting the clean file leaves every entry stale: reported,
            # exit status still 0.
            self.assertEqual(main([CLEAN, "--baseline", str(baseline)]), 0)


class TestReportsAndCatalog(unittest.TestCase):
    def test_json_format_is_parseable(self):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main([FLAGGED, "--no-baseline", "--format", "json"])
        self.assertEqual(status, 1)
        payload = json.loads(buffer.getvalue())
        self.assertEqual(payload["schema"], "repro-lint/1")
        self.assertEqual(len(payload["findings"]), 2)

    def test_list_rules_prints_the_catalog(self):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main(["--list-rules"])
        self.assertEqual(status, 0)
        output = buffer.getvalue()
        for code in ("RL101", "RL104", "RL201", "RL203", "RL301"):
            self.assertIn(code, output)
        self.assertNotIn("RL302", output)


class TestParseErrors(unittest.TestCase):
    def test_unparseable_file_is_a_finding_not_a_crash(self):
        with tempfile.TemporaryDirectory() as tmp:
            broken = Path(tmp) / "broken.py"
            broken.write_text("def broken(:\n", encoding="utf-8")
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                status = main([str(broken), "--no-baseline", "--format", "json"])
            self.assertEqual(status, 1)
            payload = json.loads(buffer.getvalue())
            (finding,) = payload["findings"]
            self.assertEqual(finding["code"], PARSE_ERROR_CODE)


class TestSourceTreeIsClean(unittest.TestCase):
    def test_src_lints_clean_without_the_baseline(self):
        """The merged tree carries zero unbaselined findings."""
        self.assertEqual(main([str(REPO_ROOT / "src"), "--no-baseline"]), 0)

    def test_iter_python_files_sees_the_whole_tree(self):
        files = iter_python_files([str(REPO_ROOT / "src")])
        self.assertGreater(len(files), 100)
        self.assertEqual(files, sorted(files))


if __name__ == "__main__":
    unittest.main()
