"""Rule base class and shared AST helpers.

A rule is a class with a ``code`` (``RLxxx``), a human ``name``, a
``description`` for the catalogue, and an optional package ``scope``
(directory names; empty means repo-wide).  The engine instantiates a
fresh rule object per run and calls :meth:`LintRule.check` once per
in-scope file.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, Iterator, List, Optional, Tuple

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic


class LintRule:
    """Base class for all lint rules (subclass and register)."""

    code: ClassVar[str]
    name: ClassVar[str]
    description: ClassVar[str]
    #: Directory names this rule is confined to; empty = everywhere.
    scope: ClassVar[Tuple[str, ...]] = ()

    def applies(self, ctx: FileContext) -> bool:
        """Whether ``ctx`` falls inside this rule's package scope."""
        return not self.scope or ctx.in_packages(self.scope)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Per-file pass; yield diagnostics for ``ctx``."""
        return iter(())

    def diagnostic(
        self, ctx_path: str, node: ast.AST, message: str
    ) -> Diagnostic:
        """Build a diagnostic for ``node`` under this rule's code."""
        return Diagnostic(
            path=ctx_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted import path they resolve to.

    ``import time`` binds ``time`` → ``time``; ``import numpy as np``
    binds ``np`` → ``numpy``; ``from datetime import datetime as dt``
    binds ``dt`` → ``datetime.datetime``.  Relative imports resolve to
    a ``.``-prefixed path that never matches an absolute ban list.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = f"{prefix}.{alias.name}" if prefix else alias.name
    return aliases


def resolve_dotted(
    node: ast.expr, aliases: Dict[str, str]
) -> Optional[str]:
    """Resolve a Name/Attribute chain through the file's import aliases."""
    raw = dotted_name(node)
    if raw is None:
        return None
    head, _, rest = raw.partition(".")
    resolved_head = aliases.get(head, head)
    return f"{resolved_head}.{rest}" if rest else resolved_head


def base_name(node: ast.expr) -> Optional[str]:
    """Last segment of a base-class expression (``t.Protocol`` → ``Protocol``)."""
    if isinstance(node, ast.Subscript):  # Generic[T], Protocol[T]
        node = node.value
    raw = dotted_name(node)
    if raw is None:
        return None
    return raw.rsplit(".", 1)[-1]


def literal_slot_names(class_node: ast.ClassDef) -> Optional[Tuple[str, ...]]:
    """The class's literal ``__slots__`` names, or ``None``.

    Returns ``None`` when the class has no ``__slots__`` assignment or
    when the value is not a literal str / tuple / list of str
    constants (dynamic slots are out of static reach).
    """
    for stmt in class_node.body:
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__"
            for target in stmt.targets
        ):
            value = stmt.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "__slots__"
        ):
            value = stmt.value
        if value is None:
            continue
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return (value.value,)
        if isinstance(value, (ast.Tuple, ast.List)):
            names: List[str] = []
            for element in value.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return None
                names.append(element.value)
            return tuple(names)
        return None
    return None


def has_slots_declaration(class_node: ast.ClassDef) -> bool:
    """Whether the class body assigns ``__slots__`` (any value shape)."""
    for stmt in class_node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__"
            for target in stmt.targets
        ):
            return True
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "__slots__"
        ):
            return True
    return False


def dataclass_slots(class_node: ast.ClassDef) -> bool:
    """Whether the class is decorated ``@dataclass(..., slots=True)``."""
    for decorator in class_node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        if base_name(decorator.func) != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def is_dataclass_decorated(class_node: ast.ClassDef) -> bool:
    """Whether the class carries a ``@dataclass`` decorator (any form)."""
    for decorator in class_node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if base_name(target) == "dataclass":
            return True
    return False
