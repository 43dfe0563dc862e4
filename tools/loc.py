#!/usr/bin/env python3
"""Source lines per ``src/repro`` package, as a Markdown table.

Usage::

    python tools/loc.py                 # this checkout's src/repro
    python tools/loc.py ../parent/src/repro   # another tree, for before/after

Two counts per package: ``lines`` is every physical line (what
``wc -l`` and a diffstat see); ``code`` leaves out blank lines, comments
and docstrings, so deleting prose does not read as a smaller program.
Files directly under the root are reported as ``(root)``.  CI prints
the table to the job summary so the per-package trend is visible on
every run (ROADMAP item 2).  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            assert first.end_lineno is not None
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_file(path: Path) -> Tuple[int, int]:
    """``(physical lines, code lines)`` of one Python source file."""
    text = path.read_text(encoding="utf-8")
    prose = _docstring_lines(ast.parse(text))
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - prose)


def count_tree(root: Path) -> Dict[str, List[int]]:
    """``{package: [files, lines, code]}`` for every ``*.py`` under ``root``."""
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        row = totals[parts[0] if len(parts) > 1 else "(root)"]
        lines, code = count_file(path)
        row[0] += 1
        row[1] += lines
        row[2] += code
    return dict(totals)


def render(totals: Dict[str, List[int]]) -> str:
    rows = sorted(totals.items())
    rows.append(("**total**", [sum(column) for column in zip(*totals.values())]))
    out = ["| package | files | lines | code |", "|---|---:|---:|---:|"]
    out += [f"| {name} | {f} | {n} | {c} |" for name, (f, n, c) in rows]
    return "\n".join(out)


def main(argv: List[str]) -> int:
    root = Path(argv[0]) if argv else REPO_ROOT / "src" / "repro"
    if not root.is_dir():
        print(f"loc: {root} is not a directory", file=sys.stderr)
        return 2
    print(render(count_tree(root)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
