"""Lint engine: rule registry, file discovery, and the run loop.

The engine walks the requested paths in sorted order, parses each
``.py`` file once, hands the :class:`~repro.lint.context.FileContext`
to every in-scope rule, filters inline suppressions, and returns a
deterministic, sorted finding list.  Baseline subtraction is the caller's concern
(:mod:`repro.lint.cli`), so programmatic users always see the full
picture.

Rules register by class through :func:`register_rule`; the
:data:`LINT_RULES` registry lazy-loads the built-in pack exactly the
way the scenario registry loads its built-ins.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Type

from repro.core.registry import Registry
from repro.lint.context import build_context
from repro.lint.diagnostics import Diagnostic
from repro.lint.rules.base import LintRule

#: Code of the synthetic diagnostic emitted for unparseable files.
PARSE_ERROR_CODE = "RL001"


def _load_rule_pack() -> None:
    """Import the built-in rule modules for their registration side effect."""
    from repro.lint.rules import load_all

    load_all()


#: Rule code → rule class.  Fresh instances are created per run.
LINT_RULES: Registry[Type[LintRule]] = Registry(
    "lint rule", loader=_load_rule_pack
)


def register_rule(rule_class: Type[LintRule]) -> Type[LintRule]:
    """Class decorator: add a rule to :data:`LINT_RULES` under its code."""
    return LINT_RULES.register(rule_class.code, rule_class)


@dataclass(frozen=True)
class LintRun:
    """Outcome of one lint pass (before baseline subtraction)."""

    findings: Tuple[Diagnostic, ...]
    files_scanned: int
    suppressed_count: int


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list.

    Raises:
        FileNotFoundError: When a requested path does not exist.
    """
    seen: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            seen.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            seen.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    unique: List[Path] = []
    for path in seen:
        if path not in unique:
            unique.append(path)
    return unique


def _build_rules(
    only: Optional[Iterable[str]] = None,
) -> List[LintRule]:
    """Instantiate the rule pack (optionally restricted to some codes)."""
    codes = list(only) if only is not None else LINT_RULES.names()
    return [LINT_RULES.get(code)() for code in sorted(codes)]


def lint_files(
    files: Sequence[Path], *, only: Optional[Iterable[str]] = None
) -> LintRun:
    """Lint ``files`` and return the sorted, suppression-filtered findings."""
    rules = _build_rules(only)
    raw_findings: List[Diagnostic] = []
    suppressed = 0
    for file_path in files:
        source = file_path.read_text(encoding="utf-8")
        posix = file_path.as_posix()
        try:
            ctx = build_context(posix, source)
        except SyntaxError as exc:
            raw_findings.append(
                Diagnostic(
                    path=posix,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    code=PARSE_ERROR_CODE,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        for rule in rules:
            if not rule.applies(ctx):
                continue
            for finding in rule.check(ctx):
                if ctx.suppressions.is_suppressed(finding.code, finding.line):
                    suppressed += 1
                else:
                    raw_findings.append(finding)
    return LintRun(
        findings=tuple(sorted(raw_findings)),
        files_scanned=len(files),
        suppressed_count=suppressed,
    )


def lint_paths(
    paths: Sequence[str], *, only: Optional[Iterable[str]] = None
) -> LintRun:
    """Lint files and directories (directories recurse into ``*.py``)."""
    return lint_files(iter_python_files(paths), only=only)
