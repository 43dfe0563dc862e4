"""Ablation bench — Eq. 10's α knob (conservatism vs responsiveness).

The paper: "data that exhibits less locality can be handled by biasing
the algorithm towards more conservative TTR values (by picking a small
value of α) and thereby increasing the frequency of polls."

Expected shape: poll counts decrease as α grows (less weight on the
most conservative TTR observed); fidelity decreases (or stays flat)
as α grows.
"""

from __future__ import annotations

from repro.scenarios.engine import render_scenario, run_scenario


def test_ablation_alpha(run_once):
    result = run_once(run_scenario, "ablation_smoothing")
    rows = result.rows
    print()
    print(render_scenario(result))

    polls = [row["polls"] for row in rows]
    fidelity = [row["fidelity"] for row in rows]

    # Small α (most conservative) polls the most; α = 1 polls the least.
    assert polls[0] >= polls[-1]

    # Fidelity must not *improve* when polls drop substantially.
    assert fidelity[0] >= fidelity[-1] - 0.02

    # Overall spread demonstrates the knob actually does something.
    assert polls[0] > polls[-1] or fidelity[0] > fidelity[-1]
