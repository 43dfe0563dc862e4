"""Figure 5 — mutual temporal consistency: polls and fidelity vs δ.

Compares the three Section 3.2 approaches on a pair of news traces
(default CNN/FN + NYT/AP, the pair of Figure 5) with Δ = 10 min:

* baseline LIMD (no mutual support),
* LIMD + triggered polls,
* LIMD + the rate heuristic.

What the paper says the sweep shows is :data:`CLAIMS`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.api.runs import run_mutual_temporal
from repro.consistency.limd import limd_policy_factory
from repro.consistency.mutual_temporal import MutualTemporalMode
from repro.core.types import MINUTE, Seconds
from repro.experiments.paper import PAPER_LIMD_PARAMETERS, TTR_MAX
from repro.metrics.collector import (
    collect_mutual_synchrony,
    collect_mutual_temporal,
)
from repro.scenarios.engine import ScenarioResult
from repro.scenarios.registry import Claim, Verdict, scenario
from repro.traces.model import UpdateTrace
from repro.traces.news import table2_traces

#: δ values (minutes) swept by the paper's Figure 5.
DEFAULT_MUTUAL_DELTAS_MIN: Sequence[float] = (1, 2, 5, 10, 15, 20, 25, 30)

DELTA: Seconds = 10 * MINUTE

_MODES = (
    ("baseline", MutualTemporalMode.NONE),
    ("triggered", MutualTemporalMode.TRIGGERED),
    ("heuristic", MutualTemporalMode.HEURISTIC),
)


def evaluate_mutual_delta(
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    mutual_delta: Seconds,
    *,
    delta: Seconds = DELTA,
    rate_ratio_threshold: float = 0.8,
) -> Dict[str, object]:
    """One sweep point: all three approaches at one δ."""
    row: Dict[str, object] = {}
    factory = limd_policy_factory(
        delta, ttr_max=TTR_MAX, parameters=PAPER_LIMD_PARAMETERS
    )
    for label, mode in _MODES:
        result = run_mutual_temporal(
            (trace_a, trace_b),
            factory,
            mutual_delta,
            mode,
            rate_ratio_threshold=rate_ratio_threshold,
        )
        synchrony = collect_mutual_synchrony(
            result.proxy, trace_a.object_id, trace_b.object_id, mutual_delta
        )
        ground_truth = collect_mutual_temporal(
            result.proxy, trace_a, trace_b, mutual_delta
        )
        row[f"{label}_polls"] = synchrony.total_polls
        # Headline fidelity uses the paper's operational (poll-synchrony)
        # measure; the stricter ground-truth Eq. 4 measures are reported
        # alongside.
        row[f"{label}_fidelity"] = synchrony.report.fidelity_by_violations
        row[f"{label}_fidelity_ground_truth"] = (
            ground_truth.report.fidelity_by_violations
        )
        row[f"{label}_fidelity_time"] = ground_truth.report.fidelity_by_time
        row[f"{label}_extra_polls"] = result.coordinator.extra_polls
    baseline = row["baseline_polls"]
    assert isinstance(baseline, int) and baseline > 0
    row["triggered_overhead"] = (row["triggered_polls"] - baseline) / baseline  # type: ignore[operator]
    row["heuristic_overhead"] = (row["heuristic_polls"] - baseline) / baseline  # type: ignore[operator]
    return row


def _prepare(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    key_a, key_b = params["pair"]  # type: ignore[misc]
    trace_a, trace_b = table2_traces((str(key_a), str(key_b)), seed)
    return {
        "trace_a": trace_a,
        "trace_b": trace_b,
        "pair_label": f"{key_a}+{key_b}",
        "delta": float(params["delta_s"]),  # type: ignore[arg-type]
        "rate_ratio_threshold": float(params["rate_ratio_threshold"]),  # type: ignore[arg-type]
    }


def _triggered_fidelity_is_one(result: ScenarioResult) -> Verdict:
    short = [
        f"{row['triggered_fidelity']:.3f} at δ = {row['mutual_delta_min']:g} min"
        for row in result.rows
        if row["triggered_fidelity"] != 1.0
    ]
    return (
        not short,
        "triggered fidelity "
        + (", ".join(short) or f"1 at all {len(result.rows)} values of δ"),
    )


def _mutual_support_costs_few_polls(result: ScenarioResult) -> Verdict:
    overheads = result.column("heuristic_overhead")
    tight = result.rows[0]
    # 2% / 5% of slack on the ordering: a triggered poll feeds LIMD like
    # any other, so the three schedules are not supersets of one another.
    return (
        all(
            row["triggered_polls"] >= row["baseline_polls"] * 0.98
            and row["heuristic_polls"] >= row["baseline_polls"] * 0.98
            and row["heuristic_polls"] <= row["triggered_polls"] * 1.05
            for row in result.rows
        )
        and max(overheads) <= 0.20
        and overheads[-1] <= overheads[0],
        f"at δ = {tight['mutual_delta_min']:g} min {tight['triggered_polls']} / "
        f"{tight['heuristic_polls']} / {tight['baseline_polls']} polls; "
        f"heuristic overhead peaks at {max(overheads):.1%} and ends at "
        f"{overheads[-1]:.1%}",
    )


def _heuristic_between_baseline_and_triggered(result: ScenarioResult) -> Verdict:
    baseline = result.column("baseline_fidelity")
    heuristic = result.column("heuristic_fidelity")
    shortfall = max(b - h for b, h in zip(baseline, heuristic))
    return (
        shortfall <= 1e-9
        and max(heuristic) <= 1.0 + 1e-9
        and baseline[-1] >= baseline[0]
        and heuristic[-1] >= heuristic[0],
        f"heuristic fidelity {heuristic[0]:.2f} → {heuristic[-1]:.2f} against "
        f"the baseline's {baseline[0]:.2f} → {baseline[-1]:.2f}, never more "
        f"than {max(shortfall, 0.0):.3f} below it",
    )


def _heuristic_fidelity_in_paper_range(result: ScenarioResult) -> Verdict:
    fidelity = result.column("heuristic_fidelity")
    low = sum(value < 0.87 for value in fidelity)
    return (
        not low,
        f"heuristic fidelity {fidelity[0]:.2f} at the tightest δ, below 0.87 at "
        f"{low} of the {len(fidelity)} values of δ",
    )


CLAIMS = (
    Claim(
        "figure5.triggered_fidelity_is_one",
        "Triggered polls give mutual fidelity 1 by definition.",
        _triggered_fidelity_is_one,
        divergence=(
            "the synchrony metric is right-censored at the horizon: a "
            "detection within δ of the end whose partner trigger was "
            "correctly suppressed as upcoming_poll counts as a violation, "
            "because that poll lies past the horizon and never runs"
        ),
    ),
    Claim(
        "figure5.mutual_support_costs_few_polls",
        "Triggered polls cost the most polls, the heuristic fewer, baseline "
        "LIMD the fewest; the heuristic's overhead over the baseline stays "
        "under 20% and shrinks as δ grows.",
        _mutual_support_costs_few_polls,
    ),
    Claim(
        "figure5.heuristic_between_baseline_and_triggered",
        "Heuristic fidelity lies between the baseline's and the triggered "
        "approach's, and both rise with δ.",
        _heuristic_between_baseline_and_triggered,
        divergence=(
            "the heuristic's extra polls feed LIMD, so its schedule is not "
            "a superset of the baseline's and can score one violation more "
            "(seed 1, δ = 10 min: 0.951 against 0.954)"
        ),
    ),
    Claim(
        "figure5.heuristic_fidelity_in_paper_range",
        "Heuristic fidelity is 0.87-1 across the δ range.",
        _heuristic_fidelity_in_paper_range,
        divergence=(
            "0.70-0.78 at δ = 1 min and under 0.87 up to δ = 5 min at every "
            "seed tried; cause open (ROADMAP item 5)"
        ),
    ),
)


@scenario(
    name="figure5",
    description="Figure 5: mutual temporal approaches (mutual-delta sweep)",
    axis="mutual_delta_min",
    values=DEFAULT_MUTUAL_DELTAS_MIN,
    params={
        "pair": ("cnn_fn", "nyt_ap"),
        "delta_s": DELTA,
        "rate_ratio_threshold": 0.8,
    },
    columns=(
        "mutual_delta_min",
        "baseline_polls",
        "triggered_polls",
        "heuristic_polls",
        "heuristic_overhead",
        "baseline_fidelity",
        "triggered_fidelity",
        "heuristic_fidelity",
    ),
    title=(
        "Figure 5: Mutual temporal consistency "
        "({pair}, delta = {delta_s:g} s)"
    ),
    tags=("paper", "figure"),
    prepare=_prepare,
    claims=CLAIMS,
)
def _point(
    mutual_delta_min: float,
    *,
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    pair_label: str,
    delta: float,
    rate_ratio_threshold: float,
) -> Dict[str, object]:
    row: Dict[str, object] = {"pair": pair_label}
    row.update(
        evaluate_mutual_delta(
            trace_a,
            trace_b,
            mutual_delta_min * MINUTE,
            delta=delta,
            rate_ratio_threshold=rate_ratio_threshold,
        )
    )
    return row
