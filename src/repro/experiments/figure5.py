"""Figure 5 — mutual temporal consistency: polls and fidelity vs δ.

Compares the three Section 3.2 approaches on a pair of news traces
(default CNN/FN + NYT/AP, the pair of Figure 5) with Δ = 10 min:

* baseline LIMD (no mutual support),
* LIMD + triggered polls (expected fidelity 1.0),
* LIMD + the rate heuristic (expected <20% poll overhead vs baseline,
  fidelity between the other two and rising with δ).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.api.runs import run_mutual_temporal
from repro.consistency.limd import limd_policy_factory
from repro.consistency.mutual_temporal import MutualTemporalMode
from repro.core.types import MINUTE, Seconds
from repro.experiments.paper import PAPER_LIMD_PARAMETERS, TTR_MAX
from repro.experiments.workloads import news_trace
from repro.metrics.collector import (
    collect_mutual_synchrony,
    collect_mutual_temporal,
)
from repro.scenarios.registry import scenario
from repro.traces.model import UpdateTrace

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
    return {
        "trace_a": news_trace(str(key_a), seed),
        "trace_b": news_trace(str(key_b), seed),
        "pair_label": f"{key_a}+{key_b}",
        "delta": float(params["delta_s"]),  # type: ignore[arg-type]
        "rate_ratio_threshold": float(params["rate_ratio_threshold"]),  # type: ignore[arg-type]
    }


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
