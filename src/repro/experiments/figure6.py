"""Figure 6 — adaptive behaviour of the mutual-consistency heuristic.

On the NYT/AP + NYT/Reuters pair:

* (a) the ratio of the two objects' update frequencies over time;
* (b) the number of extra (triggered) polls over time.

What the paper says the two series show is :data:`CLAIMS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

from repro.analysis.timeseries import Series
from repro.api.runs import RunResult, run_mutual_temporal
from repro.consistency.limd import limd_policy_factory
from repro.consistency.mutual_temporal import (
    MutualTemporalCoordinator,
    MutualTemporalMode,
    TriggerDecision,
)
from repro.core.types import HOUR, MINUTE, Seconds
from repro.experiments.paper import PAPER_LIMD_PARAMETERS, TTR_MAX
from repro.api.render import render_series_block
from repro.experiments.workloads import DEFAULT_SEED
from repro.metrics.series import extra_polls_series, update_ratio_series
from repro.scenarios.registry import Claim, Verdict, prepare_params_seed, scenario
from repro.traces.news import table2_traces

DELTA: Seconds = 10 * MINUTE
MUTUAL_DELTA: Seconds = 5 * MINUTE
BIN: Seconds = 2 * HOUR


@dataclass
class Figure6Result:
    """The two Figure 6 series plus raw decisions for deeper analysis."""

    rate_ratio: Series
    extra_polls: Series
    decisions: Sequence[TriggerDecision]
    run: RunResult[MutualTemporalCoordinator]
    pair: Sequence[str]

    @property
    def total_extra_polls(self) -> int:
        return sum(1 for d in self.decisions if d.triggered)

    @property
    def total_suppressed_by_rate(self) -> int:
        return sum(1 for d in self.decisions if d.reason == "slower_rate")


def run(
    *,
    pair: Sequence[str] = ("nyt_ap", "nyt_reuters"),
    delta: Seconds = DELTA,
    mutual_delta: Seconds = MUTUAL_DELTA,
    seed: int = DEFAULT_SEED,
    rate_ratio_threshold: float = 0.8,
) -> Figure6Result:
    """Run the heuristic on the pair and extract both series."""
    trace_a, trace_b = table2_traces(pair, seed)
    factory = limd_policy_factory(
        delta, ttr_max=TTR_MAX, parameters=PAPER_LIMD_PARAMETERS
    )
    result = run_mutual_temporal(
        (trace_a, trace_b),
        factory,
        mutual_delta,
        MutualTemporalMode.HEURISTIC,
        rate_ratio_threshold=rate_ratio_threshold,
    )
    decisions = result.coordinator.decisions
    start = min(trace_a.start_time, trace_b.start_time)
    end = max(trace_a.end_time, trace_b.end_time)
    ratio = update_ratio_series(trace_a, trace_b, BIN, label="rate ratio a/b")
    extra = extra_polls_series(
        decisions, start=start, end=end, bin_width=BIN, label="extra polls"
    )
    return Figure6Result(
        rate_ratio=ratio,
        extra_polls=extra,
        decisions=decisions,
        run=result,
        pair=pair,
    )


def _heuristic_is_selective(result: Figure6Result) -> Verdict:
    ratios = [v for v in result.rate_ratio.values if v > 0]  # NaN > 0 is False
    considered = result.run.coordinator.counters.get("considerations")
    return (
        bool(ratios)
        and max(ratios) > 1.5 * min(ratios)
        and 0 < result.total_extra_polls < considered
        and result.total_suppressed_by_rate > 0,
        f"the {BIN / HOUR:g} h rate ratio ranges over "
        f"[{min(ratios, default=math.nan):.2f}, "
        f"{max(ratios, default=math.nan):.2f}]; {result.total_extra_polls} "
        f"polls triggered in {considered} considerations, "
        f"{result.total_suppressed_by_rate} suppressed as slower-rate",
    )


#: Judged on a :class:`Figure6Result` (the registered scenario keeps
#: only the summary row, which has no series to judge).
CLAIMS = (
    Claim(
        "figure6.heuristic_is_selective",
        "The ratio of the two objects' update frequencies swings over time, "
        "and extra polls are triggered only toward a partner changing at a "
        "similar or faster rate.",
        _heuristic_is_selective,
    ),
)


def render(result: Figure6Result) -> str:
    """Render the Figure 6 series as ASCII sparklines."""
    block = render_series_block(
        [result.rate_ratio, result.extra_polls],
        title=(
            "Figure 6: Adaptive behaviour of the mutual-consistency "
            f"heuristic ({'+'.join(result.pair)})"
        ),
    )
    summary = (
        f"\nextra polls: {result.total_extra_polls}, "
        f"suppressed as slower-rate: {result.total_suppressed_by_rate}"
    )
    return block + summary



@scenario(
    name="figure6",
    description="Figure 6: mutual-heuristic adaptivity (summary statistics)",
    axis="mutual_delta_min",
    values=(5.0,),
    params={
        "pair": ("nyt_ap", "nyt_reuters"),
        "delta_min": 10.0,
        "rate_ratio_threshold": 0.8,
    },
    title=(
        "Figure 6: Mutual-heuristic adaptivity on {pair} "
        "(single run summary)"
    ),
    tags=("paper", "figure", "timeseries"),
    prepare=prepare_params_seed,
)
def _summary_point(
    mutual_delta_min: float, *, params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    """The series of one run reduced to a row (listable, golden-pinned)."""
    pair = tuple(str(key) for key in params["pair"])  # type: ignore[union-attr]
    result = run(
        pair=pair,
        delta=float(params["delta_min"]) * MINUTE,  # type: ignore[arg-type]
        mutual_delta=mutual_delta_min * MINUTE,
        seed=seed,
        rate_ratio_threshold=float(params["rate_ratio_threshold"]),  # type: ignore[arg-type]
    )
    return {
        "pair": "+".join(pair),
        "extra_polls": result.total_extra_polls,
        "suppressed_slower": result.total_suppressed_by_rate,
        "total_polls": result.run.total_polls,
    }
