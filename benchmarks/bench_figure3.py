"""Figure 3 bench — LIMD vs the poll-every-Δ baseline (CNN/FN trace).

Paper shape (Figures 3(a)-(c)):
  * at small Δ, LIMD incurs several times fewer polls than the baseline
    (paper: ~6x at Δ = 1 min) at a bounded fidelity cost (paper: ~20%);
  * as Δ grows past the mean update interval, LIMD converges to the
    baseline's poll count and its fidelity converges to 1;
  * the baseline has perfect fidelity at every Δ by definition;
  * both fidelity measures (violations, out-of-sync time) agree in trend.
"""

from __future__ import annotations

from repro.scenarios.engine import render_scenario, run_scenario


def test_figure3_limd_vs_baseline(run_once):
    result = run_once(run_scenario, "figure3")
    print()
    print(render_scenario(result))

    smallest = result.rows[0]
    largest = result.rows[-1]
    assert smallest["delta_min"] == 1
    assert largest["delta_min"] == 60

    # (1) Big poll savings at the tightest constraint (paper: ~6x).
    assert smallest["poll_ratio"] >= 3.0

    # (2) Bounded fidelity loss at the tightest constraint (paper: ~20%).
    assert smallest["limd_fidelity_violations"] >= 0.7

    # (3) Convergence to the baseline at the loosest constraint.
    assert largest["limd_polls"] <= largest["baseline_polls"] * 1.1
    assert largest["limd_fidelity_violations"] >= 0.99

    # (4) The baseline has perfect fidelity everywhere.
    for row in result.rows:
        assert row["baseline_fidelity_violations"] == 1.0
        assert row["baseline_fidelity_time"] == 1.0

    # (5) The poll ratio shrinks monotonically-ish with Δ (allow noise).
    ratios = [row["poll_ratio"] for row in result.rows]
    assert ratios[0] > ratios[len(ratios) // 2] > ratios[-1] - 1e-9

    # (6) Both fidelity measures agree in trend: time-based fidelity is
    # high wherever violation-based fidelity is high.
    for row in result.rows:
        assert row["limd_fidelity_time"] >= row["limd_fidelity_violations"] - 0.15
