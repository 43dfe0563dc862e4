"""RL3xx — façade-hygiene rules.

The public surface (``repro.api``) has a structural invariant that
review keeps re-checking by hand; this rule checks it mechanically:

* RL301 — a ``*Config`` class that defines one of ``to_dict`` /
  ``from_dict`` must pair the other (directly or through a base class
  defined in the same file, like ``_ConfigBase``).

(That every registered scenario has a ``TINY_CONFIGS`` smoke entry is
asserted at run time by ``tests/test_scenario_goldens.py``, which sees
every registration wherever its decorator lives.)
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import register_rule
from repro.lint.rules.base import LintRule, base_name

_PAIRED_METHODS = ("to_dict", "from_dict")


@register_rule
class ConfigPairingRule(LintRule):
    """RL301: config classes must pair to_dict/from_dict."""

    code = "RL301"
    name = "config-dict-pairing"
    description = (
        "A *Config class defining to_dict without from_dict (or vice "
        "versa) cannot round-trip through JSON; pair them, inheriting "
        "from _ConfigBase where possible."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        classes: Dict[str, ast.ClassDef] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
        for node in classes.values():
            if not node.name.endswith("Config") or node.name.startswith("_"):
                continue
            methods = self._resolved_methods(node, classes, set())
            if methods is None:
                continue
            present = [name for name in _PAIRED_METHODS if name in methods]
            if len(present) == 1:
                missing = next(
                    name for name in _PAIRED_METHODS if name not in methods
                )
                yield self.diagnostic(
                    ctx.path,
                    node,
                    f"config class {node.name} defines {present[0]} but "
                    f"not {missing}; serialization must round-trip",
                )

    def _resolved_methods(
        self,
        node: ast.ClassDef,
        classes: Dict[str, ast.ClassDef],
        seen: Set[str],
    ) -> Optional[Set[str]]:
        """Method names over the locally resolvable MRO, or ``None``.

        An imported (unresolvable) base may define either method, so
        the rule stays silent rather than guessing.
        """
        if node.name in seen:  # cyclic local bases: malformed anyway
            return set()
        seen.add(node.name)
        names: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        for base in node.bases:
            name = base_name(base)
            if name in ("object", "Generic", "Protocol"):
                continue
            if name is None or name not in classes:
                return None
            inherited = self._resolved_methods(classes[name], classes, seen)
            if inherited is None:
                return None
            names.update(inherited)
        return names
