"""Ablation bench — static vs dynamic δ apportioning (§4.2 choice).

With one slow (AT&T) and one fast (Yahoo) object, the dynamic split
shifts tolerance toward the slow object (δ_slow large, δ_fast small).
Expected: dynamic fidelity ≥ static fidelity, and the final dynamic
split is visibly asymmetric in the right direction.
"""

from __future__ import annotations

from repro.scenarios.engine import render_scenario, run_scenario


def test_ablation_partition_split(run_once):
    result = run_once(run_scenario, "ablation_partition")
    rows = result.rows
    print()
    print(render_scenario(result))

    by_split = {row["split"]: row for row in rows}
    static = by_split["static"]
    dynamic = by_split["dynamic"]

    # Dynamic apportioning must not hurt fidelity.
    assert dynamic["fidelity"] >= static["fidelity"] - 0.02

    # The static split stays 50/50 by construction.
    assert static["final_delta_a"] == static["final_delta_b"]

    # The dynamic split gives the slow object (AT&T = a) the larger
    # tolerance and the fast object (Yahoo = b) the smaller one.
    assert dynamic["final_delta_a"] > dynamic["final_delta_b"]
