"""Static analysis for the reproduction: ``repro lint``.

An AST-visitor lint framework plus a rule pack enforcing the repo's
real invariants before code runs:

* **RL1xx determinism** — no wall-clock reads, global RNG state, or
  set-iteration order feeding results in the simulator packages;
* **RL2xx hot-path** — ``__slots__`` on kernel-adjacent classes, no
  attribute creation escaping slots, no exception-swallowing control
  flow;
* **RL3xx façade hygiene** — ``to_dict``/``from_dict`` pairing on
  config classes, scenario/smoke-config pairing.

Programmatic use mirrors the CLI::

    from repro.lint import lint_paths
    run = lint_paths(["src"])
    for finding in run.findings:
        print(finding.render())

See ``docs/ARCHITECTURE.md`` ("Static analysis") for the rule
catalogue, the suppression / baseline policy, and how to add a rule.
"""

from __future__ import annotations

from repro.lint.baseline import (
    BASELINE_SCHEMA,
    DEFAULT_BASELINE_NAME,
    BaselineError,
    BaselineMatch,
    apply_baseline,
    load_baseline,
    render_baseline,
    write_baseline,
)
from repro.lint.context import FileContext, build_context
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import (
    LINT_RULES,
    PARSE_ERROR_CODE,
    LintRun,
    iter_python_files,
    lint_files,
    lint_paths,
    register_rule,
)
from repro.lint.report import REPORT_SCHEMA, render_json, render_text
from repro.lint.rules.base import LintRule
from repro.lint.suppress import Suppressions, parse_suppressions

__all__ = [
    "BASELINE_SCHEMA",
    "DEFAULT_BASELINE_NAME",
    "BaselineError",
    "BaselineMatch",
    "Diagnostic",
    "FileContext",
    "LINT_RULES",
    "LintRule",
    "LintRun",
    "PARSE_ERROR_CODE",
    "REPORT_SCHEMA",
    "Suppressions",
    "apply_baseline",
    "build_context",
    "iter_python_files",
    "lint_files",
    "lint_paths",
    "load_baseline",
    "parse_suppressions",
    "register_rule",
    "render_baseline",
    "render_json",
    "render_text",
    "write_baseline",
]
