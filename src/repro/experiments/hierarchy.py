"""Extension experiment: flat vs hierarchical proxy topologies.

Not a paper figure — an extension in the spirit of the paper's related
work on hierarchical WAN caching (refs [10, 11]).  Compares N edge
proxies polling the origin directly against the same N edges polling a
shared parent proxy, everything under LIMD at the same per-level Δ.

Registered as the ``hierarchy`` scenario (``python -m repro
hierarchy``).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.api.runs import build_core
from repro.consistency.limd import LimdPolicy
from repro.core.types import MINUTE, ObjectId, Seconds, TTRBounds
from repro.experiments.workloads import news_trace
from repro.metrics.collector import collect_temporal
from repro.scenarios.engine import ScenarioResult
from repro.scenarios.registry import Claim, Verdict, scenario
from repro.topology.levels import TreeLevel
from repro.topology.tree import TopologyTree
from repro.traces.model import UpdateTrace

DELTA: Seconds = 10 * MINUTE
TTR_MAX: Seconds = 60 * MINUTE
DEFAULT_EDGE_COUNT = 8


def _limd_policy(_level: int, _object_id: ObjectId) -> LimdPolicy:
    return LimdPolicy(DELTA, bounds=TTRBounds(ttr_min=DELTA, ttr_max=TTR_MAX))


def _run_tree(trace: UpdateTrace, fan_outs: Sequence[int]) -> TopologyTree:
    """Run LIMD at Δ on every node of a tree with the given fan-outs.

    ``(N,)`` is N edges each polling the origin directly; ``(1, N)`` is
    N edges polling one shared parent, which alone polls the origin.
    """
    kernel, origin = build_core([trace])
    tree = TopologyTree(
        kernel, origin, [TreeLevel(fan_out=fan_out) for fan_out in fan_outs]
    )
    tree.register_object(trace.object_id, _limd_policy)
    kernel.run(until=trace.end_time)
    return tree


def _prepare(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    return {
        "trace": news_trace(str(params["trace"]), seed),
        "edge_count": int(params["edge_count"]),  # type: ignore[arg-type]
    }


def _parent_shields_origin_staleness_composes(result: ScenarioResult) -> Verdict:
    flat, tree = result.rows
    return (
        tree["origin_requests"] < flat["origin_requests"] / 2
        and tree["edge_fidelity_1x"] <= flat["edge_fidelity_1x"] + 0.02
        and tree["edge_fidelity_2x"] >= 0.85
        and tree["edge_fidelity_2x"] > tree["edge_fidelity_1x"],
        f"origin requests {flat['origin_requests']} → {tree['origin_requests']}; "
        f"edge fidelity at Δ {flat['edge_fidelity_1x']:.2f} → "
        f"{tree['edge_fidelity_1x']:.2f}, at 2Δ under the parent "
        f"{tree['edge_fidelity_2x']:.2f}",
    )


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
    claims=(
        Claim(
            "hierarchy.parent_shields_origin_staleness_composes",
            "A shared parent replaces the edges' poll streams at the origin "
            "with its own; each level adds its Δ, so edges lose fidelity at "
            "the single-level bound and recover it at the composed bound 2Δ.",
            _parent_shields_origin_staleness_composes,
        ),
    ),
)
def _topology_row(
    topology: str, *, trace: UpdateTrace, edge_count: int
) -> Dict[str, object]:
    """One topology's row."""
    flat = topology == "flat"
    tree = _run_tree(trace, (edge_count,) if flat else (1, edge_count))
    edges = [node.proxy for node in tree.edge_nodes]
    row: Dict[str, object] = {
        "topology": topology,
        "edges": edge_count,
        "origin_requests": tree.origin_request_count(),
        "parent_polls": None if flat else tree.polls_per_level()[0],
    }
    # Mean over edges, each scored from the versions it held: an edge
    # poll refreshes to *parent*-current state, which can itself be stale.
    for factor in (1, 2):
        scores = [
            collect_temporal(edge, trace, factor * DELTA).fidelity_by_time
            for edge in edges
        ]
        row[f"edge_fidelity_{factor}x"] = sum(scores) / len(scores)
    return row
