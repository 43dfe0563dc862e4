"""The paper's LIMD set-up and the measurement several artefacts share.

Section 6.2.1 fixes one LIMD configuration (l = 0.2, ε = 0.02,
adaptive m, TTR_max = 60 min) for the whole temporal evaluation;
Figures 3–6, the ablations, the n-object extension and the workload
families under :mod:`repro.scenarios` all run it.  It lives here, below
every module that registers a scenario, so those modules never import
one another for a constant.
"""

from __future__ import annotations

from typing import Dict

from repro.api.runs import run_individual
from repro.consistency.base import fixed_policy_factory
from repro.consistency.limd import LimdParameters, limd_policy_factory
from repro.core.types import MINUTE, Seconds
from repro.metrics.collector import collect_temporal
from repro.topology.levels import LevelPolicyFactory
from repro.traces.model import UpdateTrace

#: The paper's LIMD configuration (Section 6.2.1).
PAPER_LIMD_PARAMETERS = LimdParameters(linear_increase=0.2, epsilon=0.02)

TTR_MAX: Seconds = 60 * MINUTE


def limd_level_factory(delta: Seconds) -> LevelPolicyFactory:
    """The paper's LIMD at one shared Δ on every level of a tree."""
    factory = limd_policy_factory(
        delta, ttr_max=TTR_MAX, parameters=PAPER_LIMD_PARAMETERS
    )
    return lambda _level, object_id: factory(object_id)


def evaluate_delta(
    trace: UpdateTrace,
    delta: Seconds,
    *,
    parameters: LimdParameters = PAPER_LIMD_PARAMETERS,
    detection_mode: str = "history",
) -> Dict[str, object]:
    """LIMD against the poll-every-Δ baseline on one trace at one Δ.

    The Figure 3 measurement; the flash-crowd and diurnal families take
    it on their own generated traces.
    """
    limd_run = run_individual(
        [trace],
        limd_policy_factory(
            delta,
            ttr_max=TTR_MAX,
            parameters=parameters,
            detection_mode=detection_mode,
        ),
    )
    limd_report = collect_temporal(limd_run.proxy, trace, delta).report

    baseline_run = run_individual([trace], fixed_policy_factory(delta))
    baseline_report = collect_temporal(baseline_run.proxy, trace, delta).report

    return {
        "limd_polls": limd_report.polls,
        "baseline_polls": baseline_report.polls,
        "limd_fidelity_violations": limd_report.fidelity_by_violations,
        "limd_fidelity_time": limd_report.fidelity_by_time,
        "baseline_fidelity_violations": baseline_report.fidelity_by_violations,
        "baseline_fidelity_time": baseline_report.fidelity_by_time,
        "poll_ratio": (
            baseline_report.polls / limd_report.polls
            if limd_report.polls
            else float("inf")
        ),
    }
