#!/usr/bin/env python3
"""Regenerate the golden-output files for the scenario regression suite.

Usage::

    PYTHONPATH=src python tools/update_goldens.py            # all scenarios
    PYTHONPATH=src python tools/update_goldens.py figure3    # just one
    PYTHONPATH=src python tools/update_goldens.py --check    # verify only

Each golden file under ``tests/goldens/`` pins the rows of one
registered scenario's tiny smoke run (see
:mod:`repro.scenarios.smoke`).  ``tests/test_scenario_goldens.py``
asserts the committed files match fresh runs — serially and with
``workers=2`` — so run this script *only* after an intentional
behaviour change, and review the resulting row diffs like any other
code change.

``--check`` recomputes every requested golden and exits non-zero on
drift without touching the files (used to validate this script stays
in sync with the test suite's expectations).

A golden whose scenario is no longer registered is an orphan: a
refresh deletes it, and ``--check`` reports it stale.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDENS_DIR = REPO_ROOT / "tests" / "goldens"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.scenarios.smoke import (  # noqa: E402  (path bootstrap above)
    all_tiny_scenarios,
    golden_payload,
    run_tiny,
)


def golden_path(name: str) -> Path:
    return GOLDENS_DIR / f"{name}.json"


def render_golden(name: str) -> str:
    payload = golden_payload(name, run_tiny(name))
    return json.dumps(payload, indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenarios",
        nargs="*",
        help="scenario names to refresh (default: all registered)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify committed goldens instead of rewriting them",
    )
    args = parser.parse_args(argv)

    registered = all_tiny_scenarios()
    names = args.scenarios or registered
    GOLDENS_DIR.mkdir(parents=True, exist_ok=True)
    stale = []
    for path in sorted(GOLDENS_DIR.glob("*.json")):
        if path.stem in registered:
            continue
        if args.check:
            stale.append(path.stem)
            print(f"stale: {path.relative_to(REPO_ROOT)} (no such scenario)")
        else:
            path.unlink()
            print(f"deleted {path.relative_to(REPO_ROOT)}")
    for name in names:
        content = render_golden(name)
        path = golden_path(name)
        if args.check:
            if not path.exists() or path.read_text() != content:
                stale.append(name)
                print(f"stale: {path.relative_to(REPO_ROOT)}")
            continue
        path.write_text(content)
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    if stale:
        print(
            f"{len(stale)} golden(s) out of date; rerun without --check "
            "to refresh",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
