"""Figure 7 — mutual value consistency: polls and fidelity vs δ ($).

On the AT&T + Yahoo stock pair, sweeps the mutual tolerance δ from
$0.25 to $5 and compares the two Section 4.2 approaches:

* **adaptive** — the virtual-object (adaptive-f) approach;
* **partitioned** — split δ = δa + δb with rate-based re-apportioning.

Expected shape: both approaches poll less and achieve higher fidelity
as δ grows; the partitioned approach achieves higher fidelity at the
cost of more polls.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.api.runs import (
    run_mutual_value_adaptive,
    run_mutual_value_partitioned,
)
from repro.consistency.mutual_value import difference
from repro.core.types import TTRBounds
from repro.experiments.workloads import stock_trace
from repro.metrics.collector import collect_mutual_value
from repro.scenarios.registry import scenario
from repro.traces.model import UpdateTrace

#: δ values (dollars) swept by the paper's Figure 7.
DEFAULT_MUTUAL_DELTAS: Sequence[float] = (0.25, 0.5, 0.6, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0)

#: TTR clamp for the stock experiments: quotes can be re-polled after a
#: second; a minute-long blind spot is the most we allow.
VALUE_BOUNDS = TTRBounds(ttr_min=1.0, ttr_max=60.0)


def evaluate_mutual_delta(
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    mutual_delta: float,
    *,
    bounds: TTRBounds = VALUE_BOUNDS,
) -> Dict[str, object]:
    """One sweep point: both Mv approaches at one δ."""
    row: Dict[str, object] = {}

    adaptive = run_mutual_value_adaptive(
        trace_a, trace_b, mutual_delta, bounds=bounds
    )
    adaptive_pair = collect_mutual_value(
        adaptive.proxy, trace_a, trace_b, mutual_delta, f=difference
    )
    row["adaptive_polls"] = adaptive_pair.total_polls
    row["adaptive_fidelity"] = adaptive_pair.report.fidelity_by_violations
    row["adaptive_fidelity_time"] = adaptive_pair.report.fidelity_by_time

    partitioned = run_mutual_value_partitioned(
        trace_a, trace_b, mutual_delta, bounds=bounds
    )
    partitioned_pair = collect_mutual_value(
        partitioned.proxy, trace_a, trace_b, mutual_delta, f=difference
    )
    row["partitioned_polls"] = partitioned_pair.total_polls
    row["partitioned_fidelity"] = partitioned_pair.report.fidelity_by_violations
    row["partitioned_fidelity_time"] = partitioned_pair.report.fidelity_by_time
    return row


def _prepare(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    key_a, key_b = params["pair"]  # type: ignore[misc]
    return {
        "trace_a": stock_trace(str(key_a), seed),
        "trace_b": stock_trace(str(key_b), seed),
        "pair_label": f"{key_a}+{key_b}",
        "bounds": TTRBounds(
            ttr_min=float(params["ttr_min"]),  # type: ignore[arg-type]
            ttr_max=float(params["ttr_max"]),  # type: ignore[arg-type]
        ),
    }


@scenario(
    name="figure7",
    description="Figure 7: mutual value approaches (mutual-delta sweep, $)",
    axis="mutual_delta",
    values=DEFAULT_MUTUAL_DELTAS,
    params={
        "pair": ("att", "yahoo"),
        "ttr_min": VALUE_BOUNDS.ttr_min,
        "ttr_max": VALUE_BOUNDS.ttr_max,
    },
    columns=(
        "mutual_delta",
        "adaptive_polls",
        "partitioned_polls",
        "adaptive_fidelity",
        "partitioned_fidelity",
        "adaptive_fidelity_time",
        "partitioned_fidelity_time",
    ),
    title=(
        "Figure 7: Mutual value consistency on {pair} "
        "(polls and fidelity vs mutual delta, $)"
    ),
    tags=("paper", "figure"),
    prepare=_prepare,
)
def _point(
    mutual_delta: float,
    *,
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    pair_label: str,
    bounds: TTRBounds,
) -> Dict[str, object]:
    row: Dict[str, object] = {"pair": pair_label}
    row.update(evaluate_mutual_delta(trace_a, trace_b, mutual_delta, bounds=bounds))
    return row
