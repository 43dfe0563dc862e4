"""Ablation bench — violation-detection modes (DESIGN.md §5.1 choice).

Compares the three detection modes on the fast-updating Guardian trace
at Δ = 5 min.  Expected shape:

* the exact history mode detects the most violations per poll, so LIMD
  backs off hardest and polls most — buying the highest fidelity;
* plain Last-Modified detection misses Figure 1(b)-pattern violations,
  under-reacts, and lands the lowest poll count;
* the probabilistic inferred mode sits between the two.
"""

from __future__ import annotations

from repro.scenarios.engine import render_scenario, run_scenario


def test_ablation_detection_modes(run_once):
    result = run_once(run_scenario, "ablation_history")
    rows = result.rows
    print()
    print(render_scenario(result))

    by_mode = {row["detection"]: row for row in rows}
    history = by_mode["history"]
    last_modified = by_mode["last_modified_only"]
    inferred = by_mode["inferred"]

    # History reacts to every violation → never fewer polls than the
    # blind mode; the inferred mode sits between (small noise allowed).
    assert history["polls"] >= last_modified["polls"] * 0.95
    assert inferred["polls"] >= last_modified["polls"] * 0.9

    # Fidelity ordering follows reactivity.
    assert history["fidelity"] >= last_modified["fidelity"] - 0.05

    # All modes keep fidelity in a sane band on this workload.
    for row in rows:
        assert 0.5 <= row["fidelity"] <= 1.0
