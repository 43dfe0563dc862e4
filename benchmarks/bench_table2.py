"""Table 2 bench — regenerate the temporal workload characterisation.

Paper values:
    CNN/FN        113 updates, every 26 min
    NYT (AP)      233 updates, every 11.6 min
    NYT (Reuters) 133 updates, every 20.3 min
    Guardian      902 updates, every 4.9 min
"""

from __future__ import annotations

import pytest

from repro.experiments import table2
from repro.scenarios.engine import render_scenario, run_scenario


def test_table2_regeneration(run_once):
    result = run_once(run_scenario, "table2")
    rows = result.rows
    print()
    print(render_scenario(result))

    by_key = {row["key"]: row for row in rows}
    assert set(by_key) == set(table2.PAPER_TABLE2)
    for key, expected in table2.PAPER_TABLE2.items():
        row = by_key[key]
        # Update counts are matched exactly by construction.
        assert row["num_updates"] == expected["num_updates"]
        # Mean intervals match the paper's reported precision (±5%).
        assert row["avg_update_interval_min"] == pytest.approx(
            expected["avg_update_interval_min"], rel=0.05
        )
