"""Extension experiment: flat vs hierarchical proxy topologies.

Not a paper figure — an extension in the spirit of the paper's related
work on hierarchical WAN caching (refs [10, 11]).  Compares N edge
proxies polling the origin directly against the same N edges polling a
shared parent proxy, everything under LIMD at the same per-level Δ.

Registered as the ``hierarchy`` scenario (``python -m repro
hierarchy``; ``benchmarks/bench_extension_hierarchy.py`` regenerates it).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from repro.api.runs import build_core
from repro.consistency.limd import LimdPolicy
from repro.core.types import MINUTE, Seconds, TTRBounds
from repro.experiments.workloads import news_trace
from repro.httpsim.network import Network
from repro.metrics.collector import collect_snapshot_fidelity
from repro.proxy.proxy import ProxyCache
from repro.scenarios.registry import scenario
from repro.server.origin import OriginServer
from repro.traces.model import UpdateTrace

DELTA: Seconds = 10 * MINUTE
TTR_MAX: Seconds = 60 * MINUTE
DEFAULT_EDGE_COUNT = 8


def _limd_policy() -> LimdPolicy:
    return LimdPolicy(DELTA, bounds=TTRBounds(ttr_min=DELTA, ttr_max=TTR_MAX))


def _edge_fidelity(trace: UpdateTrace, proxy: ProxyCache, delta: Seconds) -> float:
    """Time-fidelity from the snapshots the proxy actually held.

    Snapshot-based evaluation is essential for hierarchy edges: an edge
    poll refreshes to *parent*-current state, which can itself be
    stale, so poll-time fidelity would overestimate freshness.
    """
    return collect_snapshot_fidelity(proxy, trace, delta).report.fidelity_by_time


def _run_flat(
    trace: UpdateTrace, edge_count: int
) -> Tuple[OriginServer, List[ProxyCache]]:
    """N edges each polling the origin directly."""
    kernel, origin = build_core([trace])
    edges: List[ProxyCache] = []
    for index in range(edge_count):
        edge = ProxyCache(kernel, Network(kernel), name=f"edge-{index}")
        edge.register_object(trace.object_id, origin, _limd_policy())
        edges.append(edge)
    kernel.run(until=trace.end_time)
    return origin, edges


def _run_hierarchy(
    trace: UpdateTrace, edge_count: int
) -> Tuple[OriginServer, ProxyCache, List[ProxyCache]]:
    """N edges polling one shared parent; only the parent polls origin."""
    kernel, origin = build_core([trace])
    parent = ProxyCache(kernel, Network(kernel), name="parent")
    parent.register_object(trace.object_id, origin, _limd_policy())
    edges: List[ProxyCache] = []
    for index in range(edge_count):
        edge = ProxyCache(kernel, Network(kernel), name=f"edge-{index}")
        edge.register_object(trace.object_id, parent, _limd_policy())
        edges.append(edge)
    kernel.run(until=trace.end_time)
    return origin, parent, edges


def _mean(values: Iterable[float]) -> float:
    materialized = list(values)
    return sum(materialized) / len(materialized)


def _prepare(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    return {
        "trace": news_trace(str(params["trace"]), seed),
        "edge_count": int(params["edge_count"]),  # type: ignore[arg-type]
    }


@scenario(
    name="hierarchy",
    description="Extension: flat vs hierarchical proxy topologies",
    axis="topology",
    values=("flat", "hierarchy"),
    params={"trace": "cnn_fn", "edge_count": DEFAULT_EDGE_COUNT},
    title=(
        "Extension: flat vs hierarchical proxies "
        "({trace}, {edge_count} edges, delta = 10 min/level)"
    ),
    tags=("extension",),
    prepare=_prepare,
)
def _topology_row(
    topology: str, *, trace: UpdateTrace, edge_count: int
) -> Dict[str, object]:
    """One topology's row."""
    if topology == "flat":
        origin, edges = _run_flat(trace, edge_count)
        parent_polls = None
    else:
        origin, parent, edges = _run_hierarchy(trace, edge_count)
        parent_polls = parent.counters.get("polls")
    return {
        "topology": topology,
        "edges": edge_count,
        "origin_requests": origin.counters.get("requests"),
        "parent_polls": parent_polls,
        "edge_fidelity_1x": _mean(
            _edge_fidelity(trace, e, DELTA) for e in edges
        ),
        "edge_fidelity_2x": _mean(
            _edge_fidelity(trace, e, 2 * DELTA) for e in edges
        ),
    }
