"""Extension experiment: mutual temporal consistency for n-object groups.

Figure 5 evaluates the Section 3.2 approaches on *pairs*; the paper
notes all definitions "can be generalized to n objects".  This
experiment runs a three-member news group (CNN/FN, NYT/AP,
NYT/Reuters) under the same three modes and sweeps δ, reporting polls
and the ground-truth n-object Mt fidelity (the Eq. 4 generalisation:
the members' validity intervals must fit in a window of width δ —
:func:`repro.metrics.group.group_temporal_fidelity`).

Registered as the ``group_mt`` scenario (``python -m repro group_mt``).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.api.runs import run_mutual_temporal
from repro.consistency.limd import limd_policy_factory
from repro.consistency.mutual_temporal import MutualTemporalMode
from repro.core.types import MINUTE, Seconds
from repro.experiments.paper import PAPER_LIMD_PARAMETERS, TTR_MAX
from repro.metrics.collector import temporal_fetches_of
from repro.metrics.group import group_temporal_fidelity
from repro.scenarios.engine import ScenarioResult
from repro.scenarios.registry import Claim, Verdict, scenario
from repro.traces.model import UpdateTrace
from repro.traces.news import table2_traces

DEFAULT_TRIO = ("cnn_fn", "nyt_ap", "nyt_reuters")
DEFAULT_DELTA: Seconds = 10 * MINUTE
DEFAULT_MUTUAL_DELTAS = (1.0, 5.0, 10.0, 20.0, 30.0)  # minutes


def _prepare(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    trio = [str(key) for key in params["trio"]]  # type: ignore[union-attr]
    return {"traces": table2_traces(trio, seed)}


def _pair_claims_survive_n_objects(result: ScenarioResult) -> Verdict:
    tight = result.rows[0]
    extras = result.column("triggered_extra")
    return (
        all(
            row["triggered_fidelity_time"] >= row["baseline_fidelity_time"] - 1e-9
            and row["heuristic_extra"] <= row["triggered_extra"]
            and row["baseline_polls"] == tight["baseline_polls"]
            for row in result.rows
        )
        and tight["triggered_fidelity_time"] > 0.98
        and tight["baseline_fidelity_time"] < 0.95
        and extras == sorted(extras, reverse=True)
        and extras[-1] <= 5,
        f"at δ = {tight['mutual_delta_min']:g} min triggered fidelity by time "
        f"{tight['triggered_fidelity_time']:.3f} against the baseline's "
        f"{tight['baseline_fidelity_time']:.3f}; triggered extra polls "
        + " → ".join(map(str, extras))
        + ", the heuristic's "
        + " → ".join(map(str, result.column("heuristic_extra"))),
    )


@scenario(
    name="group_mt",
    description="Extension: n-object mutual temporal consistency",
    axis="mutual_delta_min",
    values=DEFAULT_MUTUAL_DELTAS,
    params={"trio": DEFAULT_TRIO},
    title=(
        "Extension: n-object mutual temporal consistency "
        "({trio}, delta = 10 min)"
    ),
    tags=("extension",),
    prepare=_prepare,
    claims=(
        Claim(
            "group_mt.pair_claims_survive_n_objects",
            "Generalised to n objects, triggered polls still dominate the "
            "δ-blind baseline on ground-truth fidelity, the heuristic spends "
            "no more extra polls than full triggering, and extra polls fade "
            "to none as δ loosens.",
            _pair_claims_survive_n_objects,
        ),
    ),
)
def _sweep_point(
    delta_min: float, *, traces: Sequence[UpdateTrace]
) -> Dict[str, object]:
    """All three Section 3.2 modes at one δ."""
    mutual_delta = delta_min * MINUTE
    row: Dict[str, object] = {"mutual_delta_min": delta_min}
    factory = limd_policy_factory(
        DEFAULT_DELTA, ttr_max=TTR_MAX, parameters=PAPER_LIMD_PARAMETERS
    )
    for mode in (
        MutualTemporalMode.NONE,
        MutualTemporalMode.HEURISTIC,
        MutualTemporalMode.TRIGGERED,
    ):
        result = run_mutual_temporal(traces, factory, mutual_delta, mode)
        report = group_temporal_fidelity(
            result.traces,
            {
                object_id: temporal_fetches_of(result.proxy, object_id)
                for object_id in result.traces
            },
            mutual_delta,
        )
        label = "baseline" if mode is MutualTemporalMode.NONE else mode.value
        row[f"{label}_polls"] = result.total_polls
        row[f"{label}_fidelity_time"] = report.fidelity_by_time
        if mode is not MutualTemporalMode.NONE:
            row[f"{label}_extra"] = result.coordinator.extra_polls
    return row
