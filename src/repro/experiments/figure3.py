"""Figure 3 — efficacy of the LIMD algorithm (CNN/FN trace by default).

Sweeps the Δt-consistency constraint from 1 to 60 minutes and, for both
LIMD (l = 0.2, ε = 0.02, adaptive m, TTR_max = 60 min) and the
poll-every-Δ baseline, reports:

* (a) number of polls,
* (b) fidelity by violations (Eq. 13),
* (c) fidelity by out-of-sync time (Eq. 14).

What the paper says the sweep shows is :data:`CLAIMS`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.api.runs import run_individual
from repro.consistency.base import fixed_policy_factory
from repro.consistency.limd import limd_policy_factory
from repro.core.types import MINUTE
from repro.experiments.paper import PAPER_LIMD_PARAMETERS, TTR_MAX
from repro.experiments.workloads import news_trace
from repro.metrics.collector import collect_temporal
from repro.scenarios.engine import ScenarioResult
from repro.scenarios.registry import Claim, Verdict, scenario
from repro.traces.model import UpdateTrace

#: Δ values (minutes) swept by the paper's Figure 3.
DEFAULT_DELTAS_MIN: Sequence[float] = (1, 2, 5, 10, 15, 20, 30, 40, 50, 60)


def _prepare(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    return {
        "trace": news_trace(str(params["trace"]), seed),
        "trace_key": str(params["trace"]),
        "detection_mode": str(params["detection_mode"]),
    }


def _fewer_polls_at_tight_delta(result: ScenarioResult) -> Verdict:
    tight = result.rows[0]
    ratio, fidelity = tight["poll_ratio"], tight["limd_fidelity_violations"]
    # Eq. 14's time measure may not tell a different story from Eq. 13's.
    agree = all(
        row["limd_fidelity_time"] >= row["limd_fidelity_violations"] - 0.15
        for row in result.rows
    )
    return (
        ratio >= 3.0 and fidelity >= 0.7 and agree,
        f"{ratio:.1f}x fewer polls at Δ = {tight['delta_min']:g} min with "
        f"fidelity {fidelity:.2f} ({tight['limd_fidelity_time']:.2f} by time)",
    )


def _converges_to_the_perfect_baseline(result: ScenarioResult) -> Verdict:
    loose = result.rows[-1]
    ratios = result.column("poll_ratio")
    perfect = all(
        row["baseline_fidelity_violations"] == row["baseline_fidelity_time"] == 1.0
        for row in result.rows
    )
    return (
        perfect
        and loose["limd_polls"] <= loose["baseline_polls"] * 1.1
        and loose["limd_fidelity_violations"] >= 0.99
        and ratios[0] > ratios[len(ratios) // 2] > ratios[-1] - 1e-9,
        f"at Δ = {loose['delta_min']:g} min {loose['limd_polls']} polls to the "
        f"baseline's {loose['baseline_polls']} at LIMD fidelity "
        f"{loose['limd_fidelity_violations']:.2f}; baseline fidelity "
        + ("1 at every Δ" if perfect else "below 1 somewhere"),
    )


CLAIMS = (
    Claim(
        "figure3.fewer_polls_at_tight_delta",
        "LIMD incurs ~6x fewer polls than the baseline at Δ = 1 min, at a "
        "fidelity loss of ~20% on either fidelity measure.",
        _fewer_polls_at_tight_delta,
        divergence=(
            "on Guardian, which updates every 4.9 min, there is too little "
            "idle time to skip: 2.5-2.6x, under the 3x the check asks for"
        ),
    ),
    Claim(
        "figure3.converges_to_the_perfect_baseline",
        "Once Δ exceeds the mean update interval LIMD converges to the "
        "poll count and the fidelity of the baseline, which is 1 at every "
        "Δ by definition.",
        _converges_to_the_perfect_baseline,
    ),
)


@scenario(
    name="figure3",
    description="Figure 3: LIMD vs poll-every-delta baseline (delta sweep)",
    axis="delta_min",
    values=DEFAULT_DELTAS_MIN,
    params={"trace": "cnn_fn", "detection_mode": "history"},
    columns=(
        "delta_min",
        "limd_polls",
        "baseline_polls",
        "poll_ratio",
        "limd_fidelity_violations",
        "limd_fidelity_time",
        "baseline_fidelity_violations",
    ),
    title="Figure 3: LIMD vs baseline on {trace} (polls and fidelity vs delta)",
    tags=("paper", "figure"),
    prepare=_prepare,
    claims=CLAIMS,
)
def _point(
    delta_min: float, *, trace: UpdateTrace, trace_key: str, detection_mode: str
) -> Dict[str, object]:
    """One sweep point: LIMD and the baseline at one Δ."""
    delta = delta_min * MINUTE
    limd_run = run_individual(
        [trace],
        limd_policy_factory(
            delta,
            ttr_max=TTR_MAX,
            parameters=PAPER_LIMD_PARAMETERS,
            detection_mode=detection_mode,
        ),
    )
    limd = collect_temporal(limd_run.proxy, trace, delta)
    baseline_run = run_individual([trace], fixed_policy_factory(delta))
    baseline = collect_temporal(baseline_run.proxy, trace, delta)
    return {
        "trace": trace_key,
        "limd_polls": limd.polls,
        "baseline_polls": baseline.polls,
        "limd_fidelity_violations": limd.fidelity_by_violations,
        "limd_fidelity_time": limd.fidelity_by_time,
        "baseline_fidelity_violations": baseline.fidelity_by_violations,
        "baseline_fidelity_time": baseline.fidelity_by_time,
        "poll_ratio": baseline.polls / limd.polls if limd.polls else float("inf"),
    }
