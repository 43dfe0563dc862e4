"""Table 2 — characteristics of the temporal-domain trace workloads.

Regenerates the paper's Table 2 from the synthetic traces: name,
observation duration, number of updates, and average update interval.
The synthetic generator is calibrated so update counts match the paper
exactly and mean intervals match to the reported precision.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.types import HOUR, MINUTE
from repro.experiments.workloads import news_traces
from repro.scenarios.engine import ScenarioResult
from repro.scenarios.registry import Claim, Verdict, scenario
from repro.traces.model import UpdateTrace
from repro.traces.stats import summarize_temporal


#: The paper's reported values.
PAPER_TABLE2 = {
    "cnn_fn": {"num_updates": 113, "avg_update_interval_min": 26.0},
    "nyt_ap": {"num_updates": 233, "avg_update_interval_min": 11.6},
    "nyt_reuters": {"num_updates": 133, "avg_update_interval_min": 20.3},
    "guardian": {"num_updates": 902, "avg_update_interval_min": 4.9},
}


def _prepare(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    del params
    return {"traces": news_traces(seed)}


def _matches_paper(result: ScenarioResult) -> Verdict:
    pairs = [(row, PAPER_TABLE2[row["key"]]) for row in result.rows]
    worst = max(
        abs(row["avg_update_interval_min"] / paper["avg_update_interval_min"] - 1)
        for row, paper in pairs
    )
    return (
        len(pairs) == len(PAPER_TABLE2)
        and all(row["num_updates"] == paper["num_updates"] for row, paper in pairs)
        and worst <= 0.05,
        " / ".join(str(row["num_updates"]) for row in result.rows)
        + f" updates, mean intervals at most {worst:.1%} off the paper's",
    )


@scenario(
    name="table2",
    description="Table 2: temporal workload characteristics",
    axis="key",
    values=("cnn_fn", "nyt_ap", "nyt_reuters", "guardian"),
    columns=("trace", "key", "duration_h", "num_updates", "avg_update_interval_min"),
    title="Table 2: Characteristics of Trace Workloads (Temporal Domain)",
    tags=("paper", "table"),
    prepare=_prepare,
    claims=(
        Claim(
            "table2.matches_paper",
            "113 / 233 / 133 / 902 updates at mean intervals of "
            "26 / 11.6 / 20.3 / 4.9 min.",
            _matches_paper,
        ),
    ),
)
def _summary_row(key: str, *, traces: Mapping[str, UpdateTrace]) -> Dict[str, object]:
    """Characterise one trace."""
    summary = summarize_temporal(traces[key])
    return {
        "trace": summary.name,
        "key": key,
        "duration_h": round(summary.duration / HOUR, 2),
        "num_updates": summary.update_count,
        "avg_update_interval_min": round(
            summary.mean_update_interval / MINUTE, 1
        ),
    }

