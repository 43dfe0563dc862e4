"""Tiny smoke configurations and golden-output helpers.

Every registered scenario has a *tiny* configuration — a couple of axis
values and, where the spec allows, a shrunken workload — sized so the
whole catalogue runs in seconds.  Two consumers share these:

* the golden-output regression suite (``tests/test_scenario_goldens.py``)
  pins every scenario's tiny rows against committed JSON files, serial
  and with ``workers=2``, so refactors cannot silently drift results;
* ``tools/update_goldens.py`` regenerates those files after an
  *intentional* behaviour change.

The canonical row encoding is compact JSON with keys in row order;
float reprs are deterministic for identical doubles, and the simulator
is deterministic by construction (seeded RNG streams, ordered executor
collection), so byte-stable hashing is safe.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.scenarios.engine import DEFAULT_SEED, ScenarioResult, run_scenario
from repro.scenarios.registry import SCENARIOS


@dataclass(frozen=True)
class TinyConfig:
    """Axis/param overrides that shrink a scenario to smoke size."""

    values: Optional[Tuple[object, ...]] = None
    params: Mapping[str, object] = field(default_factory=dict)


#: Tiny overrides per scenario.  A scenario missing here runs with its
#: full spec — ``tiny_config`` raises instead, so adding a scenario
#: forces an explicit decision about its smoke cost.
TINY_CONFIGS: Dict[str, TinyConfig] = {
    "table2": TinyConfig(),
    "table3": TinyConfig(),
    "figure3": TinyConfig(values=(1.0, 10.0)),
    "figure4": TinyConfig(),
    "figure5": TinyConfig(values=(1.0, 10.0)),
    "figure6": TinyConfig(),
    "figure7": TinyConfig(values=(0.6, 2.0)),
    "figure8": TinyConfig(),
    "group_mt": TinyConfig(values=(5.0, 30.0)),
    "hierarchy": TinyConfig(params={"edge_count": 4}),
    "ablation_history": TinyConfig(),
    "ablation_heuristic_threshold": TinyConfig(values=(0.25, 1.0)),
    "ablation_partition": TinyConfig(),
    "ablation_smoothing": TinyConfig(values=(0.3, 1.0)),
    "ablation_trigger_semantics": TinyConfig(),
    "ablation_limd_parameters": TinyConfig(values=("paper", "optimistic")),
    "ablation_latency": TinyConfig(values=(0.0, 300.0)),
    "failure_churn": TinyConfig(values=(60.0, 480.0)),
    "correlated_storm": TinyConfig(
        values=(10, 25),
        params={"objects": 12, "hours": 2.0, "storms_per_hour": 8.0},
    ),
}


def tiny_config(name: str) -> TinyConfig:
    """The tiny configuration for one scenario (must exist)."""
    try:
        return TINY_CONFIGS[name]
    except KeyError:
        raise KeyError(
            f"scenario {name!r} has no tiny smoke configuration; add one "
            "to repro.scenarios.smoke.TINY_CONFIGS (and regenerate the "
            "goldens with tools/update_goldens.py)"
        ) from None


def run_tiny(
    name: str, *, seed: int = DEFAULT_SEED, workers: Optional[int] = None
) -> ScenarioResult:
    """Run one scenario in its tiny configuration."""
    config = tiny_config(name)
    return run_scenario(
        name,
        seed=seed,
        workers=workers,
        params=dict(config.params) or None,
        values=config.values,
    )


def canonical_rows(rows: Sequence[Mapping[str, object]]) -> str:
    """Byte-stable encoding of result rows (compact JSON, row order)."""
    return json.dumps(list(rows), separators=(",", ":"))


def rows_digest(rows: Sequence[Mapping[str, object]]) -> str:
    """SHA-256 of the canonical row encoding."""
    digest = hashlib.sha256(canonical_rows(rows).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


def golden_payload(name: str, result: ScenarioResult) -> Dict[str, object]:
    """The committed golden-file content for one tiny scenario run."""
    config = tiny_config(name)
    return {
        "scenario": name,
        "seed": result.seed,
        "tiny_values": (
            list(config.values) if config.values is not None else None
        ),
        "tiny_params": dict(config.params),
        "row_hash": rows_digest(result.rows),
        "rows": result.rows,
    }


def all_tiny_scenarios() -> List[str]:
    """Registered scenario names, asserting tiny coverage is complete."""
    names = SCENARIOS.names()
    missing = sorted(set(names) - set(TINY_CONFIGS))
    if missing:
        raise KeyError(
            f"scenarios without tiny smoke configurations: {missing}"
        )
    return names
