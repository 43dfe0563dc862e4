"""Fixture-driven tests for the ``repro lint`` rule packs.

Every rule has a ``flagged.py`` exemplar (must trigger) and a
``clean.py`` exemplar (must not) under ``tests/lint_fixtures/``; see
the README there.  Scoped rules exploit positional scope matching: the
linter scopes by path *component*, so ``rl101/sim/flagged.py`` is in
scope for the determinism pack exactly like ``src/repro/sim/*.py``.
"""

import unittest
from pathlib import Path

from repro.lint import lint_paths

FIXTURES = Path(__file__).parent / "lint_fixtures"

#: (rule code, fixture directory, expected finding count in flagged.py).
RULE_CASES = (
    ("RL101", "rl101/sim", 2),
    ("RL102", "rl102/sim", 2),
    ("RL103", "rl103/sim", 2),
    ("RL104", "rl104/sim", 3),
    ("RL105", "rl105/metrics", 2),
    ("RL201", "rl201/proxy", 2),
    ("RL202", "rl202/proxy", 1),
    ("RL203", "rl203/sim", 1),
    ("RL301", "rl301", 1),
)


def _lint_one(path: Path, code: str):
    return lint_paths([str(path)], only=[code])


class TestRuleFixtures(unittest.TestCase):
    """Each rule flags its flagged exemplar and passes its clean one."""

    def test_flagged_exemplars_trigger(self):
        for code, directory, expected in RULE_CASES:
            with self.subTest(code=code):
                run = _lint_one(FIXTURES / directory / "flagged.py", code)
                self.assertEqual(len(run.findings), expected)
                self.assertTrue(
                    all(f.code == code for f in run.findings),
                    [f.render() for f in run.findings],
                )

    def test_clean_exemplars_pass(self):
        for code, directory, _ in RULE_CASES:
            with self.subTest(code=code):
                run = _lint_one(FIXTURES / directory / "clean.py", code)
                self.assertEqual(
                    [f.render() for f in run.findings], []
                )

    def test_clean_exemplars_pass_all_rules(self):
        """Clean fixtures are clean under the *whole* rule pack."""
        for code, directory, _ in RULE_CASES:
            with self.subTest(code=code):
                run = lint_paths([str(FIXTURES / directory / "clean.py")])
                self.assertEqual(
                    [f.render() for f in run.findings], []
                )

    def test_findings_carry_location_and_message(self):
        run = _lint_one(FIXTURES / "rl101" / "sim" / "flagged.py", "RL101")
        for finding in run.findings:
            self.assertGreater(finding.line, 0)
            self.assertIn("time", finding.message)
            self.assertTrue(finding.path.endswith("flagged.py"))

    def test_rl201_messages_name_the_class(self):
        run = _lint_one(FIXTURES / "rl201" / "proxy" / "flagged.py", "RL201")
        messages = sorted(f.message for f in run.findings)
        self.assertIn("class Unslotted lacks __slots__", messages[0])
        self.assertIn("UnslottedRecord", messages[1])
        self.assertIn("slots=True", messages[1])

    def test_rl202_names_the_escaping_attribute(self):
        run = _lint_one(FIXTURES / "rl202" / "proxy" / "flagged.py", "RL202")
        (finding,) = run.findings
        self.assertIn("self.latest", finding.message)
        self.assertIn("Drifting", finding.message)


class TestScoping(unittest.TestCase):
    """Scoped rules only fire inside their packages."""

    def test_wall_clock_outside_scope_is_not_flagged(self):
        run = _lint_one(FIXTURES / "scoped" / "outside.py", "RL101")
        self.assertEqual(run.files_scanned, 1)
        self.assertEqual([f.render() for f in run.findings], [])

    def test_same_pattern_inside_scope_is_flagged(self):
        run = _lint_one(FIXTURES / "rl101" / "sim" / "flagged.py", "RL101")
        self.assertTrue(run.findings)

    def test_rl105_exempts_the_sim_package(self):
        """heapq is legal in repro.sim itself — the seam's home."""
        run = _lint_one(FIXTURES / "rl105" / "sim" / "exempt.py", "RL105")
        self.assertEqual(run.files_scanned, 1)
        self.assertEqual([f.render() for f in run.findings], [])


class TestDeterminism(unittest.TestCase):
    """The linter meets its own bar: identical output across runs."""

    def test_repeated_runs_are_identical(self):
        first = lint_paths([str(FIXTURES)])
        second = lint_paths([str(FIXTURES)])
        self.assertEqual(first.findings, second.findings)
        self.assertEqual(first.files_scanned, second.files_scanned)
        self.assertEqual(first.suppressed_count, second.suppressed_count)

    def test_findings_are_sorted(self):
        run = lint_paths([str(FIXTURES)])
        self.assertEqual(list(run.findings), sorted(run.findings))


if __name__ == "__main__":
    unittest.main()
