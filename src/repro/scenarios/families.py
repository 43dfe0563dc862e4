"""Scenario families beyond the paper's evaluation.

Each family pushes one of the paper's mechanisms into a regime the
paper never measured, and states what it shows as a :class:`Claim`:

* **failure_churn** — the proxy crashes and recovers on an alternating
  up/down schedule (:mod:`repro.workload.failures`); sweeps the mean
  uptime (more churn to the left).  §3.1's recovery resets every TTR to
  TTR_min, so churn should cost polls and not fidelity.
* **correlated_storm** — update storms hit whole groups at once (every
  member updates within a small lag window) while up to hundreds of
  *overlapping* groups share one proxy; sweeps the group count.  More
  overlap means more triggered polls (§3.2), and every group should
  stay δ-consistent regardless.

Every point derives its RNG seed from the run seed and its axis value
(:func:`repro.core.rng.derive_seed`), so serial and ``workers > 1``
runs are row-for-row identical — the same discipline as the figure
sweeps.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.api.runs import build_stack
from repro.consistency.limd import limd_policy_factory
from repro.consistency.mutual_temporal import MutualTemporalCoordinator
from repro.core.rng import derive_seed
from repro.core.types import HOUR, MINUTE, ObjectId
from repro.experiments.paper import PAPER_LIMD_PARAMETERS, TTR_MAX
from repro.experiments.workloads import news_trace
from repro.groups.registry import GroupRegistry
from repro.metrics.collector import collect_temporal, temporal_fetches_of
from repro.metrics.group import group_temporal_fidelity
from repro.scenarios.engine import ScenarioResult
from repro.scenarios.registry import Claim, Verdict, prepare_params_seed, scenario
from repro.traces.model import UpdateTrace, trace_from_times
from repro.workload.failures import FailureInjector, generate_failure_schedule

# ----------------------------------------------------------------------
# Proxy failure/recovery churn
# ----------------------------------------------------------------------


def _prepare_failure_churn(
    params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    return {
        "trace": news_trace(str(params["trace"]), seed),
        "delta": float(params["delta_min"]) * MINUTE,  # type: ignore[arg-type]
        "mean_downtime": float(params["mean_downtime_min"]) * MINUTE,  # type: ignore[arg-type]
        "seed": seed,
    }


def _recovery_costs_polls_not_fidelity(result: ScenarioResult) -> Verdict:
    churned, steady = result.rows[0], result.rows[-1]
    fidelity = result.column("fidelity_time")
    return (
        churned["polls"] > steady["polls"]
        and churned["fidelity_time"] >= steady["fidelity_time"]
        and min(fidelity) >= 0.9,
        f"mean uptime {churned['mean_uptime_min']:g} → "
        f"{steady['mean_uptime_min']:g} min: {churned['failures']} → "
        f"{steady['failures']} failures, {churned['polls']} → "
        f"{steady['polls']} polls, fidelity by time "
        f"{churned['fidelity_time']:.3f} → {steady['fidelity_time']:.3f} "
        f"(lowest {min(fidelity):.3f})",
    )


@scenario(
    name="failure_churn",
    description="Proxy crash/recovery churn: cost of losing learned TTR state",
    axis="mean_uptime_min",
    values=(60.0, 120.0, 240.0, 480.0),
    params={"trace": "cnn_fn", "delta_min": 10.0, "mean_downtime_min": 10.0},
    columns=(
        "mean_uptime_min",
        "failures",
        "downtime_fraction",
        "polls",
        "fidelity_violations",
        "fidelity_time",
    ),
    title="Failure churn: LIMD under crash/recovery cycles",
    tags=("family", "failure"),
    prepare=_prepare_failure_churn,
    claims=(
        Claim(
            "failure_churn.recovery_costs_polls_not_fidelity",
            "Recovering from a proxy failure resets every TTR to TTR_min "
            "(§3.1), so frequent crashes cost extra polls while relearning "
            "and no fidelity: the most churned proxy polls more than the "
            "least churned one and is no less fresh, and fidelity by time "
            "stays ≥ 0.9 throughout.",
            _recovery_costs_polls_not_fidelity,
        ),
    ),
)
def _failure_churn_point(
    mean_uptime_min: float,
    *,
    trace: UpdateTrace,
    delta: float,
    mean_downtime: float,
    seed: int,
) -> Dict[str, object]:
    rng = random.Random(
        derive_seed(seed, f"failure_churn[{float(mean_uptime_min)}]")
    )
    schedule = generate_failure_schedule(
        rng,
        horizon=trace.end_time,
        mean_uptime=mean_uptime_min * MINUTE,
        mean_downtime=mean_downtime,
        start=trace.start_time,
    )
    kernel, server, proxy = build_stack([trace])
    factory = limd_policy_factory(
        delta, ttr_max=TTR_MAX, parameters=PAPER_LIMD_PARAMETERS
    )
    proxy.register_object(trace.object_id, server, factory(trace.object_id))
    injector = FailureInjector(kernel, proxy, schedule)
    kernel.run(until=trace.end_time)
    report = collect_temporal(proxy, trace, delta)
    return {
        "failures": schedule.failure_count,
        "downtime_fraction": schedule.downtime_fraction(trace.duration),
        "recoveries": injector.recoveries,
        "polls": report.polls,
        "fidelity_violations": report.fidelity_by_violations,
        "fidelity_time": report.fidelity_by_time,
    }


# ----------------------------------------------------------------------
# correlated_storm: whole groups invalidate together, at group scale
# ----------------------------------------------------------------------


def _storm_population(
    rng: random.Random,
    object_ids: Sequence[ObjectId],
    group_count: int,
    group_size: int,
    *,
    horizon: float,
    storms_per_hour: float,
    lag_max: float,
) -> Tuple[List[UpdateTrace], List[Tuple[ObjectId, ...]], int]:
    """Overlapping groups plus storm-driven member updates."""
    memberships = [
        tuple(rng.sample(list(object_ids), group_size))
        for _ in range(group_count)
    ]
    times: Dict[ObjectId, List[float]] = {oid: [] for oid in object_ids}
    storms = 0
    clock = 0.0
    while True:
        clock += rng.expovariate(storms_per_hour / HOUR)
        if clock >= horizon - lag_max:
            break
        storms += 1
        for member in memberships[rng.randrange(group_count)]:
            times[member].append(clock + rng.uniform(0.0, lag_max))
    # Traces need strictly increasing times: exact collisions collapse.
    traces = [
        trace_from_times(
            oid, sorted(set(times[oid])), start_time=0.0, end_time=horizon
        )
        for oid in object_ids
    ]
    return traces, memberships, storms


def _overlap_raises_triggers_not_violations(result: ScenarioResult) -> Verdict:
    triggered = result.column("triggered_polls")
    fidelity = result.column("group_fidelity_time")
    groups = result.column("group_count")
    return (
        all(low < high for low, high in zip(triggered, triggered[1:]))
        and min(fidelity) >= 0.98,
        f"triggered polls {' → '.join(map(str, triggered))} at "
        f"{' → '.join(map(str, groups))} groups; lowest group fidelity by "
        f"time {min(fidelity):.4f}",
    )


@scenario(
    name="correlated_storm",
    description="Correlated update storms across hundreds of overlapping groups",
    axis="group_count",
    values=(25, 50, 100, 200),
    params={
        "objects": 40,
        "group_size": 4,
        "hours": 6.0,
        "storms_per_hour": 12.0,
        "lag_max_s": 30.0,
        "delta_min": 2.0,
    },
    columns=(
        "group_count",
        "storms",
        "updates",
        "polls",
        "triggered_polls",
        "group_violation_rate",
        "group_fidelity_time",
    ),
    title="Correlated storms: trigger load vs overlapping group count",
    tags=("family", "groups"),
    prepare=prepare_params_seed,
    claims=(
        Claim(
            "correlated_storm.overlap_raises_triggers_not_violations",
            "A poll that finds a member changed triggers polls of its "
            "partners (§3.2), so every step of group overlap adds triggered "
            "polls, while each group's δ-fidelity by time stays ≥ 0.98.",
            _overlap_raises_triggers_not_violations,
        ),
    ),
)
def _correlated_storm_point(
    group_count: int,
    *,
    params: Mapping[str, object],
    seed: int,
) -> Dict[str, object]:
    rng = random.Random(
        derive_seed(seed, f"correlated_storm[{int(group_count)}]")
    )
    object_ids = [
        ObjectId(f"obj-{index:03d}")
        for index in range(int(params["objects"]))  # type: ignore[arg-type]
    ]
    horizon = float(params["hours"]) * HOUR  # type: ignore[arg-type]
    delta = float(params["delta_min"]) * MINUTE  # type: ignore[arg-type]
    traces, memberships, storms = _storm_population(
        rng,
        object_ids,
        int(group_count),
        int(params["group_size"]),  # type: ignore[arg-type]
        horizon=horizon,
        storms_per_hour=float(params["storms_per_hour"]),  # type: ignore[arg-type]
        lag_max=float(params["lag_max_s"]),  # type: ignore[arg-type]
    )
    kernel, server, proxy = build_stack(traces)
    registry = GroupRegistry()
    for index, members in enumerate(memberships):
        registry.create_group(f"g{index:03d}", members, delta)
    coordinator = MutualTemporalCoordinator(proxy, registry)
    factory = limd_policy_factory(
        delta, ttr_max=TTR_MAX, parameters=PAPER_LIMD_PARAMETERS
    )
    for trace in traces:
        proxy.register_object(trace.object_id, server, factory(trace.object_id))
    kernel.run(until=horizon)

    traces_by_id = {trace.object_id: trace for trace in traces}
    group_polls = group_violations = 0
    out_sync = duration = 0.0
    for spec in registry:
        report = group_temporal_fidelity(
            {m: traces_by_id[m] for m in spec.members},
            {m: temporal_fetches_of(proxy, m) for m in spec.members},
            spec.mutual_delta,
            end=horizon,
        )
        group_polls += report.polls
        group_violations += report.violations
        out_sync += report.out_sync_time
        duration += report.duration
    return {
        "storms": storms,
        "updates": sum(trace.update_count for trace in traces),
        "polls": proxy.counters.get("polls"),
        "triggered_polls": coordinator.counters.get("triggered_polls"),
        "group_violation_rate": (
            group_violations / group_polls if group_polls else 0.0
        ),
        "group_fidelity_time": 1.0 - (out_sync / duration if duration else 0.0),
    }
