"""Extension experiment: mutual temporal consistency for n-object groups.

Figure 5 evaluates the Section 3.2 approaches on *pairs*; the paper
notes all definitions "can be generalized to n objects".  This
experiment runs a three-member news group (CNN/FN, NYT/AP,
NYT/Reuters) under the same three modes and sweeps δ, reporting polls
and the ground-truth n-object Mt fidelity (the Eq. 4 generalisation:
the members' validity intervals must fit in a window of width δ —
:func:`repro.metrics.group.group_temporal_fidelity`).

Registered as the ``group_mt`` scenario (``python -m repro group_mt``;
``benchmarks/bench_extension_group_mt.py`` regenerates it).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from repro.api.runs import build_core
from repro.consistency.limd import limd_policy_factory
from repro.consistency.mutual_temporal import (
    MutualTemporalCoordinator,
    MutualTemporalMode,
)
from repro.core.types import MINUTE, ObjectId, Seconds
from repro.experiments.paper import PAPER_LIMD_PARAMETERS, TTR_MAX
from repro.experiments.workloads import news_trace
from repro.groups.registry import GroupRegistry
from repro.httpsim.network import Network
from repro.metrics.collector import temporal_fetches_of
from repro.metrics.fidelity import FidelityReport
from repro.metrics.group import group_temporal_fidelity
from repro.proxy.proxy import ProxyCache
from repro.scenarios.registry import scenario
from repro.traces.model import UpdateTrace

DEFAULT_TRIO = ("cnn_fn", "nyt_ap", "nyt_reuters")
DEFAULT_DELTA: Seconds = 10 * MINUTE
DEFAULT_MUTUAL_DELTAS = (1.0, 5.0, 10.0, 20.0, 30.0)  # minutes


def _run_mode(
    traces: Sequence[UpdateTrace],
    mutual_delta: Seconds,
    mode: MutualTemporalMode,
) -> Tuple[ProxyCache, MutualTemporalCoordinator, FidelityReport]:
    kernel, server = build_core(traces)
    proxy = ProxyCache(kernel, Network(kernel))
    groups = GroupRegistry()
    members = tuple(trace.object_id for trace in traces)
    groups.create_group("trio", members, mutual_delta)
    coordinator = MutualTemporalCoordinator(proxy, groups, mode=mode)
    factory = limd_policy_factory(
        DEFAULT_DELTA, ttr_max=TTR_MAX, parameters=PAPER_LIMD_PARAMETERS
    )
    for trace in traces:
        proxy.register_object(trace.object_id, server, factory(trace.object_id))
    kernel.run(until=max(trace.end_time for trace in traces))

    trace_map: Dict[ObjectId, UpdateTrace] = {t.object_id: t for t in traces}
    fetches = {
        object_id: temporal_fetches_of(proxy, object_id)
        for object_id in members
    }
    report = group_temporal_fidelity(trace_map, fetches, mutual_delta)
    return proxy, coordinator, report


def _prepare(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    trio = [str(key) for key in params["trio"]]  # type: ignore[union-attr]
    return {"traces": [news_trace(key, seed) for key in trio]}


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
)
def _sweep_point(
    delta_min: float, *, traces: Sequence[UpdateTrace]
) -> Dict[str, object]:
    """All three Section 3.2 modes at one δ."""
    mutual_delta = delta_min * MINUTE
    row: Dict[str, object] = {"mutual_delta_min": delta_min}
    for mode in (
        MutualTemporalMode.NONE,
        MutualTemporalMode.HEURISTIC,
        MutualTemporalMode.TRIGGERED,
    ):
        proxy, coordinator, report = _run_mode(traces, mutual_delta, mode)
        label = "baseline" if mode is MutualTemporalMode.NONE else mode.value
        row[f"{label}_polls"] = proxy.counters.get("polls")
        row[f"{label}_fidelity_time"] = report.fidelity_by_time
        if mode is not MutualTemporalMode.NONE:
            row[f"{label}_extra"] = coordinator.extra_polls
    return row
