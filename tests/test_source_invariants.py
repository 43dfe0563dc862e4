"""Source invariants behind byte-identical results and the slotted hot path.

The goldens pin *what* a run produces; these tests reject the patterns
that would make it vary between processes or slow the per-event path:

* :func:`violations` — one import-alias-aware AST walk per file:
  wall-clock / OS-entropy calls, the hidden global ``random`` state or
  an un-seeded ``random.Random()``, ``hash()`` / ``id()`` feeding an
  ordering (all three in the packages that feed result rows), ``heapq``
  imported outside ``repro.sim`` (scheduling goes through the kernel's
  scheduler seam), ``ProxyCache(...)`` / ``Network(...)`` constructed
  outside ``repro.topology`` (a run gets its proxies from a
  ``TopologyTree``, directly or through ``build_stack``, so whatever a
  tree learns to do reaches every artefact), and ``except`` arms that
  only ``pass`` / ``continue`` / ``break`` in ``sim`` / ``proxy``.
  Empty on every file under
  ``src/repro``, non-empty on each ``lint_fixtures/rl*/**/flagged.py``:
  the fixtures are the mutation test.
* every class defined in ``repro.sim`` / ``repro.proxy`` carries
  ``__slots__`` (enums, exceptions and protocols aside), checked on the
  imported classes.
* the poll path's ``Request(...)`` / ``Response(...)`` calls carry no
  keyword argument.
* set iteration order leaking into rows is not approximated statically:
  the goldens are recomputed under two different ``PYTHONHASHSEED``
  values, which sees every package and every container.

A file is scoped by the directory names on its repo-relative path, so
``lint_fixtures/rl101/sim/flagged.py`` is checked like ``src/repro/sim``.
To add a case, add a ``flagged.py`` / ``clean.py`` pair; no registration.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import random
import runpy
import subprocess
import sys
from enum import Enum
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src" / "repro"
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

#: Packages whose code feeds result rows and must stay bit-deterministic.
DETERMINISTIC = frozenset(
    {"sim", "proxy", "workload", "consistency", "scenarios", "metrics", "traces"}
)
#: Packages the kernel touches per event.
HOT_PATH = frozenset({"sim", "proxy"})

WALL_CLOCK = frozenset(
    f"{owner}.{name}"
    for owner, names in {
        "time": "time time_ns monotonic monotonic_ns perf_counter "
        "perf_counter_ns clock_gettime",
        "datetime.datetime": "now utcnow today",
        "datetime.date": "today",
        "os": "urandom getrandom",
        "uuid": "uuid1 uuid4",
        "secrets": "token_bytes token_hex token_urlsafe randbelow randbits choice",
    }.items()
    for name in names.split()
)
COMPARISON_DUNDERS = frozenset({"__lt__", "__le__", "__gt__", "__ge__"})
#: What only ``repro.topology`` constructs.
TREE_BUILT = frozenset(
    {"repro.proxy.proxy.ProxyCache", "repro.httpsim.network.Network"}
)


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name → dotted import path (``from datetime import datetime as
    dt`` binds ``dt`` to ``datetime.datetime``); relative imports keep
    their dots, so they never match an absolute name."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".", 1)[0]
                aliases[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{prefix}.{alias.name}"
    return aliases


def _resolve(node: ast.expr, aliases: Mapping[str, str]) -> Optional[str]:
    """``a.b.c`` with ``a`` resolved through the file's imports, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _hash_id_calls(roots: List[ast.AST]) -> Iterator[ast.Call]:
    for root in roots:
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("hash", "id")
            ):
                yield node


def violations(path: Path) -> List[str]:
    """``path:line: what`` for every invariant the file at ``path`` breaks."""
    path = Path(path).resolve()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    packages = set(path.relative_to(REPO_ROOT).parts[:-1])
    deterministic = bool(packages & DETERMINISTIC)
    hot_path = bool(packages & HOT_PATH)
    aliases = _import_aliases(tree)
    found: List[str] = []

    def flag(node: ast.AST, what: str) -> None:
        found.append(f"{path}:{node.lineno}: {what}")

    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module or ""]
            if "sim" not in packages and any(
                module.split(".", 1)[0] == "heapq" for module in modules
            ):
                flag(node, "heapq outside repro.sim; use the scheduler seam")
        elif isinstance(node, ast.ExceptHandler):
            if hot_path and all(
                isinstance(stmt, (ast.Pass, ast.Continue, ast.Break))
                for stmt in node.body
            ):
                flag(node, "except arm only swallows the error as control flow")
        elif isinstance(node, ast.Call):
            called = _resolve(node.func, aliases) or ""
            if called in TREE_BUILT:
                if "topology" not in packages:
                    name = called.rsplit(".", 1)[1]
                    flag(node, f"{name}() constructed outside repro.topology")
            elif not deterministic:
                continue
            elif called in WALL_CLOCK:
                flag(node, f"{called}() reads the wall clock / OS entropy")
            elif called.startswith("random.") and called[7:] in random.__all__:
                # random.__all__ is Random, SystemRandom and the functions
                # bound to the hidden global instance; only a seeded
                # Random(...) is reproducible.
                if called != "random.Random" or not (node.args or node.keywords):
                    flag(node, f"{called}() draws from unseeded / global state")
            elif called in ("sorted", "min", "max") or (
                getattr(node.func, "attr", None) == "sort"
            ):
                operands = [*node.args, *(kw.value for kw in node.keywords)]
                for call in _hash_id_calls(operands):
                    flag(call, "hash()/id() inside an ordering expression")
        elif (
            deterministic
            and isinstance(node, ast.FunctionDef)
            and node.name in COMPARISON_DUNDERS
        ):
            for call in _hash_id_calls(list(node.body)):
                flag(call, f"hash()/id() inside {node.name}")
    return found


def _fixture_id(path: Path) -> str:
    return path.relative_to(FIXTURES).as_posix()


FLAGGED = sorted(FIXTURES.glob("rl*/**/flagged.py"))
UNFLAGGED = sorted(set(FIXTURES.glob("rl*/**/*.py")) - set(FLAGGED))


class TestSourceWalk:
    def test_every_source_file_is_clean(self):
        files = sorted(SOURCE_ROOT.rglob("*.py"))
        walked = {path.relative_to(SOURCE_ROOT).as_posix() for path in files}
        anchors = {"sim/kernel.py", "proxy/proxy.py", "proxy/cache.py", "api/config.py"}
        assert anchors <= walked, "source tree not found"
        assert [line for path in files for line in violations(path)] == []

    @pytest.mark.parametrize("path", FLAGGED, ids=_fixture_id)
    def test_flagged_fixture_is_caught(self, path):
        assert violations(path)

    @pytest.mark.parametrize("path", UNFLAGGED, ids=_fixture_id)
    def test_clean_or_exempt_fixture_passes(self, path):
        assert violations(path) == []

    def test_fixtures_cover_every_check(self):
        """Each check has a fixture that trips it (and names its line)."""
        reported = "\n".join(line for path in FLAGGED for line in violations(path))
        for what in (
            "time.time()",
            "datetime.datetime.now()",  # through a from-import alias
            "random.random()",
            "random.Random()",
            "heapq outside",
            "inside an ordering",
            "inside __lt__",
            "except arm",
            "ProxyCache() constructed outside",
            "Network() constructed outside",
        ):
            assert what in reported, what
        assert f"{FIXTURES / 'rl101' / 'sim' / 'flagged.py'}:8: " in reported


def _unslotted(namespace: Mapping[str, object], module_name: str) -> List[str]:
    """Classes defined in ``module_name`` whose instances carry a ``__dict__``."""
    return sorted(
        name
        for name, value in namespace.items()
        if isinstance(value, type)
        and value.__module__ == module_name
        and not issubclass(value, (Enum, BaseException))
        and not getattr(value, "_is_protocol", False)
        and "__slots__" not in vars(value)
    )


class TestHotPathClassesAreSlotted:
    """Per-instance dicts cost the dispatch loop measurable throughput."""

    def test_every_sim_and_proxy_class_declares_slots(self):
        checked = set()
        for package in ("repro.sim", "repro.proxy"):
            paths = importlib.import_module(package).__path__
            for info in pkgutil.walk_packages(paths, package + "."):
                module = importlib.import_module(info.name)
                assert _unslotted(vars(module), info.name) == [], info.name
                checked.add(info.name)
        anchors = {"repro.sim.kernel", "repro.proxy.proxy", "repro.proxy.cache"}
        assert anchors <= checked, "hot-path modules not found"

    def test_the_check_sees_plain_classes_and_dataclasses(self):
        flagged = runpy.run_path(str(FIXTURES / "slots" / "flagged.py"))
        unslotted = _unslotted(flagged, flagged["__name__"])
        assert unslotted == ["Unslotted", "UnslottedRecord"]
        clean = runpy.run_path(str(FIXTURES / "slots" / "clean.py"))
        assert _unslotted(clean, clean["__name__"]) == []


#: The modules on the poll path.  A synchronous poll builds no message;
#: the message form is built only for a latent link's request and by the
#: ``handle_request`` wrappers, through ``response_to``.
POLL_PATH = ("proxy/proxy.py", "httpsim/semantics.py", "server/origin.py")


def test_poll_path_builds_messages_positionally():
    """On CPython a class called with keywords builds a kwargs dict per
    call (``slot_tp_init``); the latent link's ``Request(...)`` and the
    ``handle_request`` wrappers' ``Response(...)`` pass every field
    positionally, and no other poll-path function builds a message."""
    calls = [
        (relative, function.name, node)
        for relative in POLL_PATH
        for function in ast.walk(ast.parse((SOURCE_ROOT / relative).read_text()))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("Request", "Response")
    ]
    assert {(relative, name, node.func.id) for relative, name, node in calls} == {
        ("proxy/proxy.py", "_issue_poll", "Request"),
        ("httpsim/semantics.py", "response_to", "Response"),
    }
    keyworded = [
        f"{relative}:{node.lineno}: {node.func.id}(...)"
        for relative, _name, node in calls
        if node.keywords
    ]
    assert keyworded == []


@pytest.mark.parametrize("hash_seed", ["1", "4242"])
def test_goldens_hold_under_a_fixed_hash_seed(hash_seed):
    """Set iteration order varies with ``PYTHONHASHSEED``; a result row that
    depends on it drifts from the committed goldens under at least one of
    two different seeds."""
    check = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "update_goldens.py"), "--check"],
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert check.returncode == 0, check.stdout + check.stderr
