"""Ablation bench — network-latency sensitivity (the §6.1.1 assumption).

The paper fixes network latency and studies only consistency
mechanisms.  This ablation relaxes that: with a one-way latency L, a
poll's answer reflects the server as of one round trip ago, so the
staleness floor rises and fidelity falls as L approaches Δ.
"""

from __future__ import annotations

from repro.scenarios.engine import render_scenario, run_scenario


def test_ablation_latency(run_once):
    result = run_once(run_scenario, "ablation_latency")
    rows = result.rows
    print()
    print(render_scenario(result))

    zero = rows[0]
    worst = rows[-1]
    assert zero["one_way_latency_s"] == 0.0

    # (1) At latency = Δ the time-fidelity visibly degrades from the
    # zero-latency setting the paper evaluates.
    assert worst["latency_over_delta"] == 1.0
    assert worst["fidelity_time"] < zero["fidelity_time"] - 0.05

    # (2) Small latencies (≪ Δ) barely matter — the paper's fixed-latency
    # assumption is harmless in its own regime.
    small = rows[1]
    assert small["one_way_latency_s"] <= 0.05 * 600.0 * 10
    assert abs(small["fidelity_time"] - zero["fidelity_time"]) < 0.02

    # (3) The round trip stretches the effective poll period: poll
    # counts fall monotonically (weakly) with latency.
    polls = [row["polls"] for row in rows]
    assert polls[-1] < polls[0]
