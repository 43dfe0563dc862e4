"""Table 3 — characteristics of the value-domain (stock) workloads.

Regenerates the paper's Table 3: stock name, window, number of updates,
and min/max traded values.  The synthetic generator matches counts and
value ranges exactly by construction.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.types import HOUR
from repro.experiments.workloads import stock_traces
from repro.scenarios.engine import ScenarioResult
from repro.scenarios.registry import Claim, Verdict, scenario
from repro.traces.model import UpdateTrace
from repro.traces.stats import summarize_value


#: The paper's reported values.
PAPER_TABLE3 = {
    "att": {"num_updates": 653, "min_value": 35.8, "max_value": 36.5},
    "yahoo": {"num_updates": 2204, "min_value": 160.2, "max_value": 171.2},
}


def _prepare(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    del params
    return {"traces": stock_traces(seed)}


def _matches_paper(result: ScenarioResult) -> Verdict:
    columns = ("num_updates", "min_value", "max_value")
    return (
        {row["key"]: tuple(row[column] for column in columns) for row in result.rows}
        == {
            key: tuple(paper[column] for column in columns)
            for key, paper in PAPER_TABLE3.items()
        },
        "; ".join(
            f"{row['stock']} {row['num_updates']} ticks in "
            f"[{row['min_value']:g}, {row['max_value']:g}]"
            for row in result.rows
        ),
    )


@scenario(
    name="table3",
    description="Table 3: value workload characteristics",
    axis="key",
    values=("att", "yahoo"),
    columns=("stock", "key", "duration_h", "num_updates", "min_value", "max_value"),
    title="Table 3: Characteristics of Trace Workloads (Value Domain)",
    tags=("paper", "table"),
    prepare=_prepare,
    claims=(
        Claim(
            "table3.matches_paper",
            "AT&T 653 ticks in [35.8, 36.5]; Yahoo 2204 ticks in "
            "[160.2, 171.2].",
            _matches_paper,
        ),
    ),
)
def _summary_row(key: str, *, traces: Mapping[str, UpdateTrace]) -> Dict[str, object]:
    """Characterise one trace."""
    summary = summarize_value(traces[key])
    return {
        "stock": summary.name,
        "key": key,
        "duration_h": round(summary.duration / HOUR, 2),
        "num_updates": summary.update_count,
        "min_value": round(summary.min_value, 2),
        "max_value": round(summary.max_value, 2),
    }

