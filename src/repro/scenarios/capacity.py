"""Finite-capacity scenario families: eviction × consistency interplay.

The paper assumes an infinitely large proxy cache (Section 6.1.1), so
its Δ bound silently presumes every object *stays* cached between
polls.  A bounded cache breaks that premise: evicting an object throws
away both the copy and the poll history behind the policy's learned
TTR, and until the refetch the bound is void.  Two families measure
that interaction:

* **capacity_edge** — a CDN-style edge tree absorbs a flash crowd
  while its edge caches hold fewer entries than the object population;
  sweeps the edge capacity and reports eviction churn, refetch counts,
  and the *effective staleness violations* the absences caused
  (:func:`repro.metrics.collector.collect_eviction_impact`).
* **ttl_class_mix** — heterogeneous TTL classes à la operational TTL
  tables: part of the population runs a declared per-class static TTL
  (``CacheConfig.ttl_classes``) while the rest keeps LIMD, all inside
  one small bounded cache; sweeps the class TTL across the polling
  cadence of the adaptive policy.

Both derive every point's RNG from the run seed and axis value, so
serial and ``workers > 1`` runs stay row-for-row identical.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional, Sequence

from repro.api.builder import SimulationBuilder
from repro.api.runs import build_core
from repro.core.rng import derive_seed
from repro.core.types import HOUR, MINUTE
from repro.experiments.paper import TTR_MAX, limd_level_factory
from repro.metrics.collector import (
    collect_eviction_impact,
    mean_snapshot_fidelity,
)
from repro.proxy.cache import ObjectCache
from repro.scenarios.registry import prepare_params_seed, scenario
from repro.topology.levels import TreeLevel
from repro.topology.tree import TopologyTree
from repro.workload.surges import SurgeWindow, flash_crowd_trace

# ----------------------------------------------------------------------
# Bounded edge caches under flash-crowd load
# ----------------------------------------------------------------------


@scenario(
    name="capacity_edge",
    description=(
        "Bounded edge caches under a flash crowd: eviction churn vs the "
        "policy's staleness bound"
    ),
    axis="capacity",
    values=(2, 4, 8),
    params={
        "objects": 6,
        "fan_out": 3,
        "eviction": "tinylfu",
        "total_updates": 240,
        "hours": 12.0,
        "surge_start_hour": 6.0,
        "surge_duration_min": 30.0,
        "surge_intensity": 20.0,
        "delta_min": 10.0,
    },
    columns=(
        "capacity",
        "objects",
        "evictions",
        "refetch_after_evict",
        "staleness_violations",
        "absent_time_s",
        "edge_fidelity_time",
        "origin_requests",
        "total_polls",
    ),
    title="Edge capacity sweep: eviction churn against the Δ bound",
    tags=("family", "capacity", "topology"),
    prepare=prepare_params_seed,
)
def _capacity_edge_point(
    capacity: int, *, params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    point_seed = derive_seed(seed, f"capacity_edge[{int(capacity)}]")
    end = float(params["hours"]) * HOUR  # type: ignore[arg-type]
    surge = SurgeWindow(
        at=float(params["surge_start_hour"]) * HOUR,  # type: ignore[arg-type]
        duration=float(params["surge_duration_min"]) * MINUTE,  # type: ignore[arg-type]
        intensity=float(params["surge_intensity"]),  # type: ignore[arg-type]
    )
    traces = [
        flash_crowd_trace(
            f"obj-{index}",
            random.Random(derive_seed(point_seed, f"trace.obj-{index}")),
            total=int(params["total_updates"]),  # type: ignore[arg-type]
            end=end,
            surges=(surge,),
        )
        for index in range(int(params["objects"]))  # type: ignore[arg-type]
    ]
    delta = float(params["delta_min"]) * MINUTE  # type: ignore[arg-type]
    eviction = str(params["eviction"])

    kernel, origin = build_core(traces)
    # The shield keeps the paper's unbounded cache; only the edges are
    # squeezed below the object population.
    tree = TopologyTree(
        kernel,
        origin,
        [
            TreeLevel(fan_out=1),
            TreeLevel(fan_out=int(params["fan_out"])),  # type: ignore[arg-type]
        ],
        cache_factory=lambda level, _index: (
            ObjectCache(capacity=int(capacity), eviction=eviction)
            if level > 0
            else None
        ),
    )
    for trace in traces:
        tree.register_object(trace.object_id, limd_level_factory(delta))
    kernel.run(until=end)

    evictions = 0
    refetches = 0
    violations = 0
    absent = 0.0
    for node in tree.edge_nodes:
        for trace in traces:
            impact = collect_eviction_impact(
                node.proxy, trace, delta, horizon=end
            )
            evictions += impact.evictions
            refetches += impact.refetches_after_evict
            violations += impact.staleness_violations
            absent += impact.absent_time
    return {
        "objects": len(traces),
        "evictions": evictions,
        "refetch_after_evict": refetches,
        "staleness_violations": violations,
        "absent_time_s": absent,
        # The additive bound gives depth-2 edges 2Δ of slack.  Pairs a
        # bounded edge evicted for good are not scored here: their cost
        # is what ``staleness_violations`` counts.
        "edge_fidelity_time": mean_snapshot_fidelity(
            (node.proxy for node in tree.edge_nodes), traces, 2 * delta
        ),
        "origin_requests": tree.origin_request_count(),
        "total_polls": tree.total_polls(),
    }


# ----------------------------------------------------------------------
# Heterogeneous TTL classes in one bounded cache
# ----------------------------------------------------------------------

#: Objects declared into the swept TTL class vs. left on the main policy.
_TTL_CLASSED = ("cnn_fn", "nyt_ap")
_TTL_DEFAULT = ("guardian",)


@scenario(
    name="ttl_class_mix",
    description=(
        "Heterogeneous TTL classes in one bounded cache: declared "
        "per-class TTLs vs the adaptive policy"
    ),
    axis="ttl_min",
    values=(2.0, 10.0, 30.0),
    params={
        "capacity": 2,
        "eviction": "lru",
        "delta_min": 10.0,
    },
    columns=(
        "ttl_min",
        "classed_polls",
        "default_polls",
        "classed_fidelity_time",
        "default_fidelity_time",
        "evictions",
        "refetch_after_evict",
        "staleness_violations",
    ),
    title="TTL class mix: declared freshness classes inside a bounded cache",
    tags=("family", "capacity"),
    prepare=prepare_params_seed,
)
def _ttl_class_mix_point(
    ttl_min: float, *, params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    delta = float(params["delta_min"]) * MINUTE  # type: ignore[arg-type]
    outcome = (
        SimulationBuilder()
        .workload("news", *(_TTL_CLASSED + _TTL_DEFAULT))
        .policy("limd", delta=delta, ttr_max=TTR_MAX)
        .cache(
            int(params["capacity"]),  # type: ignore[arg-type]
            eviction=str(params["eviction"]),
            ttl_classes={"classed": float(ttl_min) * MINUTE},
            object_classes={key: "classed" for key in _TTL_CLASSED},
        )
        .fidelity_delta(delta)
        .seed(derive_seed(seed, f"ttl_class_mix[{float(ttl_min)}]"))
        .run()
    )
    rows = {str(row["object"]): row for row in outcome.results}

    def _polls(keys: Sequence[str]) -> int:
        return sum(int(rows[key]["polls"]) for key in keys)

    def _fidelity(keys: Sequence[str]) -> Optional[float]:
        cells = [rows[key]["fidelity_by_time"] for key in keys]
        present = [float(cell) for cell in cells if cell is not None]
        return sum(present) / len(present) if present else None

    def _total(column: str) -> int:
        return sum(int(row[column]) for row in rows.values())

    return {
        "classed_polls": _polls(_TTL_CLASSED),
        "default_polls": _polls(_TTL_DEFAULT),
        "classed_fidelity_time": _fidelity(_TTL_CLASSED),
        "default_fidelity_time": _fidelity(_TTL_DEFAULT),
        "evictions": _total("evictions"),
        "refetch_after_evict": _total("refetch_after_evict"),
        "staleness_violations": _total("staleness_violations"),
    }
