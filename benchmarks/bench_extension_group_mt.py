"""Extension bench — n-object mutual temporal consistency.

Figure 5 generalised from pairs to a three-member news group, under the
ground-truth n-object Mt metric (validity-interval spread ≤ δ).  The
paper's qualitative claims must survive the generalisation: triggered
polls dominate fidelity, the heuristic spends fewer extra polls, and
everything converges to the baseline as δ loosens.
"""

from __future__ import annotations

from repro.scenarios.engine import render_scenario, run_scenario


def test_extension_group_mt(run_once):
    result = run_once(run_scenario, "group_mt")
    rows = result.rows
    print()
    print(render_scenario(result))

    for row in rows:
        # (1) Triggered polls never lose to the baseline on fidelity.
        assert (
            row["triggered_fidelity_time"]
            >= row["baseline_fidelity_time"] - 1e-9
        )
        # (2) The heuristic never spends more extra polls than the full
        # triggered approach.
        assert row["heuristic_extra"] <= row["triggered_extra"]
        # (3) The baseline ignores δ entirely.
        assert row["baseline_polls"] == rows[0]["baseline_polls"]

    # (4) At the tightest δ the triggered approach is near-perfect while
    # the baseline visibly violates the group condition.
    tightest = rows[0]
    assert tightest["triggered_fidelity_time"] > 0.98
    assert tightest["baseline_fidelity_time"] < 0.95

    # (5) Extra polls decrease as δ loosens (the δ suppression window
    # absorbs more triggers), converging to the baseline.
    extras = [row["triggered_extra"] for row in rows]
    assert extras == sorted(extras, reverse=True)
    assert extras[-1] <= 5
