"""Suppression directives: parsing and end-to-end behaviour.

The grammar (``# repro-lint: disable=RLxxx (justification)``) is part
of the reviewable surface — the justification must be parenthesised so
the code-list parser stops before the prose.
"""

import unittest
from pathlib import Path

from repro.lint import lint_paths, parse_suppressions

FIXTURES = Path(__file__).parent / "lint_fixtures"


class TestParseSuppressions(unittest.TestCase):
    def test_line_level_directive(self):
        source = "t0 = time.time()  # repro-lint: disable=RL101 (log label)\n"
        suppressions = parse_suppressions(source)
        self.assertTrue(suppressions.is_suppressed("RL101", 1))
        self.assertFalse(suppressions.is_suppressed("RL101", 2))
        self.assertFalse(suppressions.is_suppressed("RL102", 1))

    def test_file_wide_directive(self):
        source = "# repro-lint: disable-file=RL201 (shim module)\nx = 1\n"
        suppressions = parse_suppressions(source)
        self.assertTrue(suppressions.is_suppressed("RL201", 1))
        self.assertTrue(suppressions.is_suppressed("RL201", 99))

    def test_disable_all(self):
        source = "x = 1  # repro-lint: disable=all (generated file)\n"
        suppressions = parse_suppressions(source)
        self.assertTrue(suppressions.is_suppressed("RL101", 1))
        self.assertTrue(suppressions.is_suppressed("RL301", 1))

    def test_multiple_codes_comma_separated(self):
        source = "x = 1  # repro-lint: disable=RL101, RL104 (both)\n"
        suppressions = parse_suppressions(source)
        self.assertTrue(suppressions.is_suppressed("RL101", 1))
        self.assertTrue(suppressions.is_suppressed("RL104", 1))
        self.assertFalse(suppressions.is_suppressed("RL102", 1))

    def test_unparenthesised_prose_invalidates_the_token(self):
        """Prose glued to the code list makes the token invalid.

        This pins the sharp edge of the grammar: the justification must
        be parenthesised, otherwise it merges with the final code token
        and nothing is suppressed.
        """
        source = "x = 1  # repro-lint: disable=RL101 log label only\n"
        suppressions = parse_suppressions(source)
        self.assertFalse(suppressions.is_suppressed("RL101", 1))

    def test_unknown_tokens_are_ignored(self):
        source = "x = 1  # repro-lint: disable=RL101, bogus (mixed)\n"
        suppressions = parse_suppressions(source)
        self.assertTrue(suppressions.is_suppressed("RL101", 1))
        self.assertFalse(suppressions.is_suppressed("bogus", 1))

    def test_plain_comments_do_not_suppress(self):
        suppressions = parse_suppressions("x = 1  # normal comment\n")
        self.assertFalse(suppressions.is_suppressed("RL101", 1))


class TestSuppressionFixtures(unittest.TestCase):
    """Suppressed findings vanish from the run but are counted."""

    def test_inline_suppression_counts_one(self):
        path = FIXTURES / "suppress" / "sim" / "inline.py"
        run = lint_paths([str(path)], only=["RL101"])
        self.assertEqual([f.render() for f in run.findings], [])
        self.assertEqual(run.suppressed_count, 1)

    def test_file_wide_suppression_covers_every_finding(self):
        path = FIXTURES / "suppress" / "sim" / "filewide.py"
        run = lint_paths([str(path)], only=["RL101"])
        self.assertEqual([f.render() for f in run.findings], [])
        self.assertEqual(run.suppressed_count, 2)

    def test_full_rule_pack_respects_suppressions(self):
        run = lint_paths([str(FIXTURES / "suppress")])
        self.assertEqual([f.render() for f in run.findings], [])
        self.assertEqual(run.suppressed_count, 3)
        self.assertEqual(run.files_scanned, 2)


if __name__ == "__main__":
    unittest.main()
