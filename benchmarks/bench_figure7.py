"""Figure 7 bench — mutual value consistency: polls and fidelity vs δ.

Paper shape (AT&T + Yahoo pair, f = price difference):
  * both approaches incur fewer polls at larger (more tolerant) δ;
  * both achieve higher fidelity at larger δ;
  * the partitioned approach achieves higher fidelity than adaptive-f
    by exploiting the structure of f ...
  * ... at the cost of a correspondingly larger number of polls.
"""

from __future__ import annotations

from repro.scenarios.engine import render_scenario, run_scenario


def test_figure7_mutual_value(run_once):
    result = run_once(run_scenario, "figure7")
    print()
    print(render_scenario(result))

    rows = result.rows
    first, last = rows[0], rows[-1]

    # (1) Fewer polls at larger δ, for both approaches.
    assert last["adaptive_polls"] < first["adaptive_polls"]
    assert last["partitioned_polls"] < first["partitioned_polls"]

    # (2) Higher fidelity at larger δ, for both approaches.
    assert last["adaptive_fidelity"] >= first["adaptive_fidelity"]
    assert last["partitioned_fidelity"] >= first["partitioned_fidelity"]
    assert last["adaptive_fidelity"] >= 0.95
    assert last["partitioned_fidelity"] >= 0.95

    # (3) Partitioned wins on fidelity at (almost) every point.
    wins = sum(
        1
        for row in rows
        if row["partitioned_fidelity"] >= row["adaptive_fidelity"] - 1e-9
    )
    assert wins >= len(rows) - 1

    # (4) Partitioned pays with more polls in the contested mid-range.
    mid_rows = [row for row in rows if 0.5 <= row["mutual_delta"] <= 2.0]
    assert mid_rows
    for row in mid_rows:
        assert row["partitioned_polls"] >= row["adaptive_polls"]
