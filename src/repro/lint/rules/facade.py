"""RL3xx — façade-hygiene rules.

The public surface (``repro.api``, the scenario catalogue) has
structural invariants that review keeps re-checking by hand; these
rules check them mechanically:

* RL301 — a ``*Config`` class that defines one of ``to_dict`` /
  ``from_dict`` must pair the other (directly or through a base class
  defined in the same file, like ``_ConfigBase``);
* RL302 — every ``@scenario(name=...)`` registration must name a tiny
  smoke configuration in ``TINY_CONFIGS`` (the golden suite and
  ``tools/update_goldens.py`` both key off it; a missing entry only
  explodes at test-collection time otherwise).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

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


@register_rule
class ScenarioSmokeRule(LintRule):
    """RL302: every @scenario registration must name a smoke config."""

    code = "RL302"
    name = "scenario-smoke-config"
    description = (
        "Every @scenario(name=...) registration must have a matching "
        "TINY_CONFIGS entry (repro.scenarios.smoke); the golden "
        "regression suite and tools/update_goldens.py both require it."
    )

    def __init__(self) -> None:
        #: (scenario name, path, line, col) per registration site.
        self._registrations: List[Tuple[str, str, int, int]] = []
        self._tiny_names: Set[str] = set()
        self._saw_tiny_configs = False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    self._note_registration(ctx, decorator)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == "TINY_CONFIGS"
                    ):
                        self._note_tiny_configs(node.value)
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.target.id == "TINY_CONFIGS"
                    and node.value is not None
                ):
                    self._note_tiny_configs(node.value)
        return iter(())

    def _note_registration(self, ctx: FileContext, decorator: ast.expr) -> None:
        if not isinstance(decorator, ast.Call):
            return
        name = base_name(decorator.func)
        if name != "scenario":
            return
        for keyword in decorator.keywords:
            if keyword.arg != "name":
                continue
            value = keyword.value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                if ctx.suppressions.is_suppressed(self.code, decorator.lineno):
                    return
                self._registrations.append(
                    (
                        value.value,
                        ctx.path,
                        decorator.lineno,
                        decorator.col_offset,
                    )
                )
            return

    def _note_tiny_configs(self, value: ast.expr) -> None:
        if not isinstance(value, ast.Dict):
            return
        self._saw_tiny_configs = True
        for key in value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self._tiny_names.add(key.value)

    def finalize(self) -> Iterator[Diagnostic]:
        if not self._saw_tiny_configs:
            # The smoke module was outside the linted path set: there
            # is nothing sound to compare registrations against.
            return
        for name, path, line, col in sorted(self._registrations):
            if name not in self._tiny_names:
                yield Diagnostic(
                    path=path,
                    line=line,
                    col=col,
                    code=self.code,
                    message=(
                        f"scenario {name!r} has no TINY_CONFIGS smoke "
                        "entry; add one to repro.scenarios.smoke (and "
                        "regenerate goldens)"
                    ),
                )

