"""Figure 7 — mutual value consistency: polls and fidelity vs δ ($).

On the AT&T + Yahoo stock pair, sweeps the mutual tolerance δ from
$0.25 to $5 and compares the two Section 4.2 approaches:

* **adaptive** — the virtual-object (adaptive-f) approach;
* **partitioned** — split δ = δa + δb with rate-based re-apportioning.

What the paper says the sweep shows is :data:`CLAIMS`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence

from repro.api.runs import (
    run_mutual_value_adaptive,
    run_mutual_value_partitioned,
)
from repro.consistency.mutual_value import difference
from repro.core.types import TTRBounds
from repro.metrics.collector import collect_mutual_value
from repro.scenarios.engine import ScenarioResult
from repro.scenarios.registry import Claim, Verdict, scenario
from repro.traces.model import UpdateTrace
from repro.traces.stocks import table3_traces

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
        (trace_a, trace_b), mutual_delta, bounds=bounds
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
    trace_a, trace_b = table3_traces((str(key_a), str(key_b)), seed)
    return {
        "trace_a": trace_a,
        "trace_b": trace_b,
        "pair_label": f"{key_a}+{key_b}",
        "bounds": TTRBounds(
            ttr_min=float(params["ttr_min"]),  # type: ignore[arg-type]
            ttr_max=float(params["ttr_max"]),  # type: ignore[arg-type]
        ),
    }


def _tolerance_saves_polls_and_buys_fidelity(result: ScenarioResult) -> Verdict:
    tight, loose = result.rows[0], result.rows[-1]
    approaches = ("adaptive", "partitioned")
    return (
        all(
            loose[f"{approach}_polls"] < tight[f"{approach}_polls"]
            and loose[f"{approach}_fidelity"] >= tight[f"{approach}_fidelity"]
            and loose[f"{approach}_fidelity"] >= 0.95
            for approach in approaches
        ),
        f"from δ = ${tight['mutual_delta']:g} to ${loose['mutual_delta']:g}: "
        + "; ".join(
            f"{approach} {tight[f'{approach}_polls']} → "
            f"{loose[f'{approach}_polls']} polls, fidelity "
            f"{tight[f'{approach}_fidelity']:.2f} → "
            f"{loose[f'{approach}_fidelity']:.2f}"
            for approach in approaches
        ),
    )


def _partitioned_trades_polls_for_fidelity(result: ScenarioResult) -> Verdict:
    def describe(row: Mapping[str, Any]) -> str:
        return (
            f"at δ = ${row['mutual_delta']:g} partitioned fidelity "
            f"{row['partitioned_fidelity']:.3f} vs adaptive "
            f"{row['adaptive_fidelity']:.3f} with {row['partitioned_polls']} "
            f"vs {row['adaptive_polls']} polls"
        )

    broken = [
        row
        for row in result.rows
        if row["partitioned_fidelity"] < row["adaptive_fidelity"] - 1e-9
        or row["partitioned_polls"] < row["adaptive_polls"]
    ]
    if broken:
        return False, "the ordering breaks " + "; ".join(map(describe, broken))
    return True, describe(result.rows[len(result.rows) // 2]) + ", and so at every δ"


CLAIMS = (
    Claim(
        "figure7.tolerance_saves_polls_and_buys_fidelity",
        "Both approaches incur fewer polls and achieve higher fidelity at "
        "larger δ.",
        _tolerance_saves_polls_and_buys_fidelity,
    ),
    Claim(
        "figure7.partitioned_trades_polls_for_fidelity",
        "The partitioned approach achieves higher fidelity than adaptive-f, "
        "at the cost of more polls.",
        _partitioned_trades_polls_for_fidelity,
        divergence=(
            "at δ = $0.25 the per-object bound the partition rests on is "
            "infeasible for Yahoo: its share sits at the 5% floor ($0.0125, "
            "under ~90% of its ticks), Eq. 9 asks for a TTR below TTR_min = "
            "1 s, and its poll interval stops answering to δ (median ~11 s "
            "at $0.25, $0.5 and $0.6 alike) while adaptive-f keeps "
            "tightening; seed 1 also misses by one poll in 559 at δ = $3"
        ),
    ),
)


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
    claims=CLAIMS,
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
