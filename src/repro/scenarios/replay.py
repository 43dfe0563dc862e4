"""Replay and group-scale scenario families (ROADMAP item 2).

Three families push the trace/groups layer into adversarial territory:

* **trace_replay** — a deterministic synthetic access log
  (:func:`repro.traces.clf.generate_synthetic_log`) replays through a
  CDN-style tree via the ``trace_replay`` workload source, with a
  mutual-consistency group over the replayed pages; sweeps the replay
  ``time_scale`` (0.25 = four times faster than real time).
* **correlated_storm** — update storms hit whole groups at once (every
  member updates within a small lag window) while *hundreds of
  overlapping* groups share one proxy; sweeps the group count and
  reports trigger amplification and group-violation rates.
* **group_churn** — group membership re-forms on an epoch schedule
  while the proxy itself crashes and recovers
  (:mod:`repro.workload.failures`); sweeps the re-formation epoch.

Every point derives its RNG from the run seed and axis value
(:func:`repro.core.rng.derive_seed`), so serial and ``workers > 1``
runs are row-for-row identical — the golden files pin both.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.api.builder import SimulationBuilder
from repro.api.config import GroupConfig
from repro.api.runs import build_stack
from repro.consistency.limd import limd_policy_factory
from repro.consistency.mutual_temporal import MutualTemporalCoordinator
from repro.core.rng import RngRegistry, derive_seed
from repro.core.types import HOUR, MINUTE, GroupId, ObjectId
from repro.experiments.paper import PAPER_LIMD_PARAMETERS, TTR_MAX
from repro.groups.registry import GroupRegistry
from repro.metrics.collector import temporal_fetches_of
from repro.metrics.group import group_temporal_fidelity
from repro.scenarios.registry import prepare_params_seed, scenario
from repro.traces.clf import generate_synthetic_log, serialize_log
from repro.traces.model import UpdateTrace, trace_from_times
from repro.traces.synthetic import poisson_trace
from repro.workload.failures import FailureInjector, generate_failure_schedule

# ----------------------------------------------------------------------
# trace_replay: a log replayed through a CDN tree
# ----------------------------------------------------------------------

_REPLAY_URLS = ("/index.html", "/news/front", "/quote/ticker")


def _prepare_trace_replay(
    params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    # One log shared by every point, so the axis isolates the replay
    # speed (each point rescales the *same* request history).
    records = generate_synthetic_log(
        derive_seed(seed, "trace_replay.log"),
        urls=_REPLAY_URLS,
        duration_s=float(params["duration_hours"]) * HOUR,  # type: ignore[arg-type]
        mean_interval_s=float(params["mean_interval_s"]),  # type: ignore[arg-type]
        change_probability=float(params["change_probability"]),  # type: ignore[arg-type]
    )
    return {
        "lines": serialize_log(records).splitlines(),
        "params": dict(params),
        "seed": seed,
    }


@scenario(
    name="trace_replay",
    description="Access-log replay through a CDN tree, groups attached",
    axis="time_scale",
    values=(0.25, 0.5, 1.0, 2.0),
    params={
        "duration_hours": 4.0,
        "mean_interval_s": 45.0,
        "change_probability": 0.35,
        "rule": "size_change",
        "delta_min": 5.0,
        "fan_out": 2,
    },
    columns=(
        "time_scale",
        "updates",
        "root_polls",
        "edge_polls",
        "root_fidelity",
        "edge_fidelity",
        "group_violations",
    ),
    title="Trace replay: log-driven updates through a proxy tree",
    tags=("family", "replay"),
    prepare=_prepare_trace_replay,
)
def _trace_replay_point(
    time_scale: float,
    *,
    lines: List[str],
    params: Mapping[str, object],
    seed: int,
) -> Dict[str, object]:
    delta = float(params["delta_min"]) * MINUTE  # type: ignore[arg-type]
    outcome = (
        SimulationBuilder()
        .workload(
            "trace_replay",
            *_REPLAY_URLS,
            lines=list(lines),
            format="clf",
            rule=str(params["rule"]),
            time_scale=float(time_scale),
        )
        .policy("limd", delta=delta, ttr_max=TTR_MAX)
        .topology(
            "tree",
            levels=[
                {"fan_out": 1},
                {"fan_out": int(params["fan_out"])},  # type: ignore[arg-type]
            ],
        )
        .groups(
            [GroupConfig("front_pages", _REPLAY_URLS[:2], 2.0 * MINUTE)]
        )
        .fidelity_delta(delta)
        .seed(derive_seed(seed, f"trace_replay[{float(time_scale)}]"))
        .run()
    )
    root_polls = edge_polls = 0
    root_fid: List[float] = []
    edge_fid: List[float] = []
    group_violations = 0
    for row in outcome.results.to_records():
        if row.get("group") is not None:
            group_violations += int(row["group_violations"])  # type: ignore[arg-type]
            continue
        is_root = str(row["node"]).startswith("L0.")
        polls = int(row["polls"])  # type: ignore[arg-type]
        fidelity = row.get("fidelity_by_time")
        if is_root:
            root_polls += polls
            root_fid.append(float(fidelity))  # type: ignore[arg-type]
        else:
            edge_polls += polls
            edge_fid.append(float(fidelity))  # type: ignore[arg-type]
    updates = sum(
        trace.update_count for trace in outcome.run.traces.values()
    )
    return {
        "updates": updates,
        "root_polls": root_polls,
        "edge_polls": edge_polls,
        "root_fidelity": sum(root_fid) / len(root_fid),
        "edge_fidelity": sum(edge_fid) / len(edge_fid),
        "group_violations": group_violations,
    }


# ----------------------------------------------------------------------
# correlated_storm: whole groups invalidate together, at group scale
# ----------------------------------------------------------------------


def _increasing(times: List[float]) -> List[float]:
    """Sorted times with exact collisions dropped (traces need strict order)."""
    out: List[float] = []
    for time in sorted(times):
        if not out or time > out[-1]:
            out.append(time)
    return out


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
    traces = [
        trace_from_times(
            oid, _increasing(times[oid]), start_time=0.0, end_time=horizon
        )
        for oid in object_ids
    ]
    return traces, memberships, storms


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


# ----------------------------------------------------------------------
# group_churn: membership re-forms while the proxy crashes and recovers
# ----------------------------------------------------------------------


def _partition_groups(
    rng: random.Random, object_ids: Sequence[ObjectId], group_size: int
) -> List[Tuple[ObjectId, ...]]:
    """A random disjoint partition into groups of ``group_size``.

    The undersized remainder (< 2 members) is left ungrouped.
    """
    shuffled = list(object_ids)
    rng.shuffle(shuffled)
    groups = []
    for start in range(0, len(shuffled), group_size):
        chunk = tuple(shuffled[start : start + group_size])
        if len(chunk) >= 2:
            groups.append(chunk)
    return groups


@scenario(
    name="group_churn",
    description="Groups re-form on an epoch schedule during failure churn",
    axis="epoch_min",
    values=(15.0, 30.0, 60.0, 120.0),
    params={
        "objects": 12,
        "group_size": 3,
        "hours": 8.0,
        "rate_per_hour": 6.0,
        "delta_min": 2.0,
        "mean_uptime_min": 60.0,
        "mean_downtime_min": 5.0,
    },
    columns=(
        "epoch_min",
        "reforms",
        "failures",
        "recoveries",
        "polls",
        "triggered_polls",
        "final_group_violations",
        "final_group_fidelity_time",
    ),
    title="Group churn: re-forming groups under crash/recovery cycles",
    tags=("family", "groups", "failure"),
    prepare=prepare_params_seed,
)
def _group_churn_point(
    epoch_min: float,
    *,
    params: Mapping[str, object],
    seed: int,
) -> Dict[str, object]:
    point_seed = derive_seed(seed, f"group_churn[{float(epoch_min)}]")
    rng = random.Random(point_seed)
    rngs = RngRegistry(point_seed)
    object_ids = [
        ObjectId(f"obj-{index:02d}")
        for index in range(int(params["objects"]))  # type: ignore[arg-type]
    ]
    horizon = float(params["hours"]) * HOUR  # type: ignore[arg-type]
    delta = float(params["delta_min"]) * MINUTE  # type: ignore[arg-type]
    group_size = int(params["group_size"])  # type: ignore[arg-type]
    epoch = float(epoch_min) * MINUTE

    traces = [
        poisson_trace(
            str(oid),
            rngs.stream(f"group_churn.{oid}"),
            float(params["rate_per_hour"]) / HOUR,  # type: ignore[arg-type]
            end=horizon,
        )
        for oid in object_ids
    ]

    # Every epoch's partition is drawn up front so the kernel callbacks
    # mutate the registry without consuming randomness mid-run (their
    # execution order alone then determines the outcome).
    reform_times = []
    clock = epoch
    while clock < horizon:
        reform_times.append(clock)
        clock += epoch
    partitions = [
        _partition_groups(rng, object_ids, group_size)
        for _ in range(len(reform_times) + 1)
    ]

    kernel, server, proxy = build_stack(traces)
    registry = GroupRegistry()
    current_ids: List[GroupId] = []

    def apply_partition(epoch_index: int) -> None:
        for group_id in current_ids:
            registry.remove_group(group_id)
        current_ids.clear()
        for index, members in enumerate(partitions[epoch_index]):
            spec = registry.create_group(
                f"e{epoch_index}-g{index}", members, delta
            )
            current_ids.append(spec.group_id)

    apply_partition(0)
    coordinator = MutualTemporalCoordinator(proxy, registry)
    reforms = 0

    def make_reform(epoch_index: int) -> Callable[[object], None]:
        def reform(_kernel: object) -> None:
            nonlocal reforms
            reforms += 1
            apply_partition(epoch_index)

        return reform

    for index, time in enumerate(reform_times, start=1):
        kernel.schedule_at(time, make_reform(index))

    schedule = generate_failure_schedule(
        rng,
        horizon=horizon,
        mean_uptime=float(params["mean_uptime_min"]) * MINUTE,  # type: ignore[arg-type]
        mean_downtime=float(params["mean_downtime_min"]) * MINUTE,  # type: ignore[arg-type]
    )
    injector = FailureInjector(kernel, proxy, schedule)

    factory = limd_policy_factory(
        delta, ttr_max=TTR_MAX, parameters=PAPER_LIMD_PARAMETERS
    )
    for trace in traces:
        proxy.register_object(trace.object_id, server, factory(trace.object_id))
    kernel.run(until=horizon)

    # The final epoch's groups are scored over the window they actually
    # existed in; earlier incarnations are reflected in the counters.
    final_start = reform_times[-1] if reform_times else 0.0
    traces_by_id = {trace.object_id: trace for trace in traces}
    violations = 0
    out_sync = duration = 0.0
    for spec in registry:
        report = group_temporal_fidelity(
            {m: traces_by_id[m] for m in spec.members},
            {m: temporal_fetches_of(proxy, m) for m in spec.members},
            spec.mutual_delta,
            start=final_start,
            end=horizon,
        )
        violations += report.violations
        out_sync += report.out_sync_time
        duration += report.duration
    return {
        "reforms": reforms,
        "failures": schedule.failure_count,
        "recoveries": injector.recoveries,
        "polls": proxy.counters.get("polls"),
        "triggered_polls": coordinator.counters.get("triggered_polls"),
        "final_group_violations": violations,
        "final_group_fidelity_time": (
            1.0 - (out_sync / duration if duration else 0.0)
        ),
    }
