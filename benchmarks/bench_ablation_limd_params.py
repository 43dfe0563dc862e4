"""Ablation bench — LIMD l/m tuning (§3.1 "optimistic vs conservative").

The paper: the approach "can be made optimistic by employing a large
linear growth factor ... and thereby reduce the number of polls.
Alternatively, the approach can be made conservative by employing a
large multiplicative factor to back off quickly in the event of a
violation."  This bench quantifies both knobs on the CNN/FN workload at
Δ = 10 min.
"""

from __future__ import annotations

from repro.scenarios.engine import render_scenario, run_scenario


def test_ablation_limd_parameters(run_once):
    result = run_once(run_scenario, "ablation_limd_parameters")
    rows = result.rows
    print()
    print(render_scenario(result))
    by_tuning = {row["tuning"]: row for row in rows}

    conservative = by_tuning["conservative"]
    paper = by_tuning["paper"]
    optimistic = by_tuning["optimistic"]
    hard = by_tuning["hard_backoff"]
    soft = by_tuning["soft_backoff"]

    # (1) Growth factor l trades polls for fidelity monotonically.
    assert conservative["polls"] > paper["polls"] > optimistic["polls"]
    assert conservative["fidelity_time"] >= paper["fidelity_time"]
    assert paper["fidelity_time"] >= optimistic["fidelity_time"]

    # (2) A hard back-off (small fixed m) polls more and keeps higher
    # fidelity than a soft back-off (large fixed m).
    assert hard["polls"] > soft["polls"]
    assert hard["fidelity_time"] > soft["fidelity_time"]

    # (3) No tuning collapses below useful fidelity on this workload.
    for row in rows:
        assert row["fidelity_time"] > 0.8
