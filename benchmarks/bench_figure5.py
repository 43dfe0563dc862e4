"""Figure 5 bench — mutual temporal consistency: polls and fidelity vs δ.

Paper shape (CNN/FN + NYT/AP pair, Δ = 10 min):
  * polls: triggered ≥ heuristic ≥ baseline; the heuristic's overhead
    over baseline LIMD stays under ~20% and shrinks as δ grows;
  * fidelity: triggered = 1 by definition (under the paper's
    operational poll-synchrony measure); heuristic between baseline and
    triggered (paper: 0.87–1); baseline worst; all rise with δ.
"""

from __future__ import annotations

from repro.scenarios.engine import render_scenario, run_scenario


def test_figure5_mutual_temporal(run_once):
    result = run_once(run_scenario, "figure5")
    print()
    print(render_scenario(result))

    for row in result.rows:
        # (1) Poll ordering: adding mutual support costs polls.
        assert row["triggered_polls"] >= row["baseline_polls"] * 0.98
        assert row["heuristic_polls"] >= row["baseline_polls"] * 0.98
        # (2) Heuristic overhead below the paper's 20% bound.
        assert row["heuristic_overhead"] <= 0.20
        # The heuristic never costs more than full triggering (noise
        # tolerance for the LIMD scheduling interplay).
        assert row["heuristic_polls"] <= row["triggered_polls"] * 1.05

        # (3) Fidelity ordering under the operational measure.
        assert row["triggered_fidelity"] == 1.0
        assert row["heuristic_fidelity"] >= row["baseline_fidelity"] - 1e-9
        assert row["heuristic_fidelity"] <= 1.0 + 1e-9

    # (4) Fidelities rise with δ.
    baseline_fid = [row["baseline_fidelity"] for row in result.rows]
    heuristic_fid = [row["heuristic_fidelity"] for row in result.rows]
    assert baseline_fid[-1] >= baseline_fid[0]
    assert heuristic_fid[-1] >= heuristic_fid[0]
    # Paper: heuristic fidelities are high (0.87–1) across the range
    # except at the very tightest δ; check the δ ≥ 5 min region.
    for row in result.rows:
        if row["mutual_delta_min"] >= 5:
            assert row["heuristic_fidelity"] >= 0.8

    # (5) Overhead shrinks for more tolerant constraints.
    overheads = [row["heuristic_overhead"] for row in result.rows]
    assert overheads[-1] <= overheads[0]


def test_figure5_disparate_rate_pair(run_once):
    """The technical-report claim: the Figure 5 observations hold
    "irrespective of the difference in the rate of change of objects".

    Re-runs the sweep on the most rate-disparate Table 2 pair —
    Guardian (every 4.9 min) + CNN/FN (every 26 min) — at a coarse δ
    grid and checks the same orderings.
    """
    result = run_once(
        run_scenario,
        "figure5",
        params={"pair": ("guardian", "cnn_fn")},
        values=(1, 5, 15, 30),
    )
    print()
    print(render_scenario(result))

    for row in result.rows:
        # Triggered fidelity is 1 up to a horizon edge case: a trigger
        # can be suppressed because the partner's next scheduled poll is
        # within δ, yet that poll falls beyond the simulation end and
        # never executes.  At most a handful of detections near the end
        # of the trace are affected.
        assert row["triggered_fidelity"] >= 0.99
        assert row["heuristic_fidelity"] >= row["baseline_fidelity"] - 1e-9
        assert row["heuristic_overhead"] <= 0.20
    fidelities = [row["heuristic_fidelity"] for row in result.rows]
    assert fidelities[-1] >= fidelities[0]
