"""Figure 3 — efficacy of the LIMD algorithm (CNN/FN trace by default).

Sweeps the Δt-consistency constraint from 1 to 60 minutes and, for both
LIMD (l = 0.2, ε = 0.02, adaptive m, TTR_max = 60 min) and the
poll-every-Δ baseline, reports:

* (a) number of polls,
* (b) fidelity by violations (Eq. 13),
* (c) fidelity by out-of-sync time (Eq. 14).

Expected shape: LIMD ≪ baseline polls at small Δ (the paper sees ~6×
fewer at Δ = 1 min, at ~20% fidelity cost) and LIMD → baseline (with
fidelity → 1) once Δ exceeds the mean update interval.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.core.types import MINUTE
from repro.experiments.paper import evaluate_delta
from repro.experiments.workloads import news_trace
from repro.scenarios.registry import scenario
from repro.traces.model import UpdateTrace

#: Δ values (minutes) swept by the paper's Figure 3.
DEFAULT_DELTAS_MIN: Sequence[float] = (1, 2, 5, 10, 15, 20, 30, 40, 50, 60)


def _prepare(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    return {
        "trace": news_trace(str(params["trace"]), seed),
        "trace_key": str(params["trace"]),
        "detection_mode": str(params["detection_mode"]),
    }


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
)
def _point(
    delta_min: float, *, trace: UpdateTrace, trace_key: str, detection_mode: str
) -> Dict[str, object]:
    """One sweep point: LIMD and the baseline at one Δ."""
    row: Dict[str, object] = {"trace": trace_key}
    row.update(
        evaluate_delta(trace, delta_min * MINUTE, detection_mode=detection_mode)
    )
    return row
