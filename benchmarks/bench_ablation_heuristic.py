"""Ablation bench — the §3.2 heuristic's rate-ratio threshold.

Sweeps the gate from permissive (0.25: almost everything triggers) to
strict (2.0: partner must change at twice the source's rate).  Expected
shape: extra polls decrease monotonically with the threshold; fidelity
degrades (weakly) as triggering is suppressed.
"""

from __future__ import annotations

from repro.scenarios.engine import render_scenario, run_scenario


def test_ablation_heuristic_threshold(run_once):
    result = run_once(run_scenario, "ablation_heuristic_threshold")
    rows = result.rows
    print()
    print(render_scenario(result))

    extras = [row["extra_polls"] for row in rows]
    suppressed = [row["suppressed_slower"] for row in rows]
    fidelity = [row["fidelity"] for row in rows]

    # Stricter gates trigger fewer extra polls...
    assert extras[0] >= extras[-1]
    # ...and suppress more considerations as slower-rate.
    assert suppressed[-1] >= suppressed[0]

    # The permissive end approaches full triggering fidelity.
    assert fidelity[0] >= fidelity[-1] - 0.02
