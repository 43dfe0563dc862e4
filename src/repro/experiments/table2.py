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
from repro.scenarios.registry import scenario
from repro.traces.model import UpdateTrace
from repro.traces.stats import summarize_temporal


def _prepare(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    del params
    return {"traces": news_traces(seed)}


@scenario(
    name="table2",
    description="Table 2: temporal workload characteristics",
    axis="key",
    values=("cnn_fn", "nyt_ap", "nyt_reuters", "guardian"),
    columns=("trace", "key", "duration_h", "num_updates", "avg_update_interval_min"),
    title="Table 2: Characteristics of Trace Workloads (Temporal Domain)",
    tags=("paper", "table"),
    prepare=_prepare,
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


#: The paper's reported values, for EXPERIMENTS.md comparison.
PAPER_TABLE2 = {
    "cnn_fn": {"num_updates": 113, "avg_update_interval_min": 26.0},
    "nyt_ap": {"num_updates": 233, "avg_update_interval_min": 11.6},
    "nyt_reuters": {"num_updates": 133, "avg_update_interval_min": 20.3},
    "guardian": {"num_updates": 902, "avg_update_interval_min": 4.9},
}

