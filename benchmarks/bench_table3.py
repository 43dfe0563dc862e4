"""Table 3 bench — regenerate the value-domain workload characterisation.

Paper values:
    AT&T   653 updates, min $35.8, max $36.5
    Yahoo  2204 updates, min $160.2, max $171.2
"""

from __future__ import annotations

import pytest

from repro.experiments import table3
from repro.scenarios.engine import render_scenario, run_scenario


def test_table3_regeneration(run_once):
    result = run_once(run_scenario, "table3")
    rows = result.rows
    print()
    print(render_scenario(result))

    by_key = {row["key"]: row for row in rows}
    assert set(by_key) == set(table3.PAPER_TABLE3)
    for key, expected in table3.PAPER_TABLE3.items():
        row = by_key[key]
        assert row["num_updates"] == expected["num_updates"]
        assert row["min_value"] == pytest.approx(expected["min_value"], abs=0.01)
        assert row["max_value"] == pytest.approx(expected["max_value"], abs=0.01)
