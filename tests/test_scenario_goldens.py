"""Golden-output regression suite for every registered scenario.

Each committed file under ``tests/goldens/`` pins the rows of one
scenario's tiny smoke run (config in :mod:`repro.scenarios.smoke`).
A fresh run must reproduce the committed rows byte-for-byte — serially
*and* with ``workers=2`` — so refactors of the simulator, metrics, or
engine cannot silently drift experiment output.

After an intentional behaviour change, refresh with::

    PYTHONPATH=src python tools/update_goldens.py

and review the row diffs like any other code change.  The same command
deletes the golden of a scenario that is no longer registered.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.scenarios.registry import SCENARIOS
from repro.scenarios.smoke import (
    TINY_CONFIGS,
    canonical_rows,
    rows_digest,
    run_tiny,
)

GOLDENS_DIR = Path(__file__).resolve().parent / "goldens"

REFRESH_HINT = (
    "golden out of date or missing; if the change is intentional run "
    "`PYTHONPATH=src python tools/update_goldens.py` and review the diff"
)


def _load_golden(name: str) -> dict:
    path = GOLDENS_DIR / f"{name}.json"
    assert path.exists(), f"{path.name}: {REFRESH_HINT}"
    return json.loads(path.read_text())


class TestCoverage:
    def test_every_scenario_has_a_tiny_config(self):
        assert sorted(TINY_CONFIGS) == SCENARIOS.names()

    def test_every_scenario_has_a_committed_golden(self):
        """Exactly one golden per scenario: none missing, no orphans."""
        committed = {path.stem for path in GOLDENS_DIR.glob("*.json")}
        registered = set(SCENARIOS.names())
        assert committed == registered, (
            f"missing: {sorted(registered - committed)}, "
            f"orphans: {sorted(committed - registered)}; {REFRESH_HINT}"
        )

    def test_no_orphan_goldens(self):
        committed = {path.stem for path in GOLDENS_DIR.glob("*.json")}
        orphans = committed - set(SCENARIOS.names())
        assert not orphans, f"goldens without scenarios: {sorted(orphans)}"


@pytest.mark.parametrize("name", sorted(TINY_CONFIGS))
def test_golden_rows_serial_and_parallel(name):
    golden = _load_golden(name)
    result = run_tiny(name)

    assert rows_digest(result.rows) == golden["row_hash"], (
        f"{name}: {REFRESH_HINT}"
    )
    # Compare through the canonical encoding so the committed JSON and
    # the fresh rows are held to exactly the same representation.
    assert canonical_rows(result.rows) == canonical_rows(golden["rows"]), (
        f"{name}: {REFRESH_HINT}"
    )

    parallel = run_tiny(name, workers=2)
    assert canonical_rows(parallel.rows) == canonical_rows(result.rows), (
        f"{name}: workers=2 rows differ from serial rows"
    )


def test_golden_seed_matches_default():
    """Goldens must be generated at the canonical experiment seed."""
    from repro.scenarios.engine import DEFAULT_SEED

    for path in GOLDENS_DIR.glob("*.json"):
        assert json.loads(path.read_text())["seed"] == DEFAULT_SEED, path.name
