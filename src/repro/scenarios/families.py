"""New scenario families beyond the paper's evaluation.

Six families exercise the scenario engine on regimes the paper never
measured:

* **flash_crowd** — a mass-conserving surge window concentrates updates
  into a burst; sweeps surge intensity.
* **diurnal** — sinusoidally modulated update rate; sweeps modulation
  amplitude from flat Poisson to rate-touching-zero nights.
* **failure_churn** — the proxy crashes and recovers on an alternating
  up/down schedule; sweeps the mean uptime (more churn to the left).
* **hetero_mix** — one cache holds a news page, a stock quote, and a
  synthetic Poisson object simultaneously; sweeps the shared Δ.
* **cdn_tree** — a CDN-style edge tree (one shield proxy fanning out to
  k² edges) absorbs a flash crowd; sweeps the fan-out and reports
  origin shielding vs edge staleness (topology layer,
  :mod:`repro.topology`).
* **hybrid_push_pull** — a push root with polling edges against the
  same tree running pure pull; sweeps the edge Δ across the
  message-cost crossover (``test_extension_push_vs_poll`` in
  ``tests/test_paper_claims.py`` measures it on one proxy).

Every point derives its RNG seed from the run seed and its axis value
(:func:`repro.core.rng.derive_seed`), so serial and ``workers > 1``
runs are row-for-row identical — the same discipline as the figure
sweeps.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping

from repro.api.runs import build_core, build_stack, run_individual
from repro.consistency.limd import limd_policy_factory
from repro.core.rng import RngRegistry, derive_seed
from repro.core.types import DAY, HOUR, MINUTE
from repro.experiments.paper import (
    PAPER_LIMD_PARAMETERS,
    TTR_MAX,
    evaluate_delta,
    limd_level_factory,
)
from repro.experiments.workloads import news_trace, stock_trace
from repro.metrics.collector import collect_temporal, mean_snapshot_fidelity
from repro.scenarios.registry import prepare_params_seed, scenario
from repro.topology.levels import TreeLevel
from repro.topology.tree import TopologyTree
from repro.traces.model import UpdateTrace
from repro.traces.synthetic import poisson_trace
from repro.workload.failures import FailureInjector, generate_failure_schedule
from repro.workload.modulation import DiurnalModulation, diurnal_trace
from repro.workload.surges import SurgeWindow, flash_crowd_trace

# ----------------------------------------------------------------------
# Flash crowds
# ----------------------------------------------------------------------


@scenario(
    name="flash_crowd",
    description="Flash-crowd surges: LIMD vs baseline as burst intensity grows",
    axis="surge_intensity",
    values=(1.0, 5.0, 10.0, 25.0, 50.0),
    params={
        "total_updates": 400,
        "hours": 24.0,
        "surge_start_hour": 12.0,
        "surge_duration_min": 30.0,
        "delta_min": 10.0,
    },
    columns=(
        "surge_intensity",
        "updates_in_surge",
        "limd_polls",
        "baseline_polls",
        "poll_ratio",
        "limd_fidelity_violations",
        "limd_fidelity_time",
    ),
    title="Flash crowd: polls and fidelity vs surge intensity",
    tags=("family", "workload"),
    prepare=prepare_params_seed,
)
def _flash_crowd_point(
    surge_intensity: float, *, params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    # float() so numerically equal int/float axis values (e.g. a CLI
    # `--values 25` vs the spec's 25.0) derive the same point seed.
    rng = random.Random(
        derive_seed(seed, f"flash_crowd[{float(surge_intensity)}]")
    )
    end = float(params["hours"]) * HOUR  # type: ignore[arg-type]
    surge = SurgeWindow(
        at=float(params["surge_start_hour"]) * HOUR,  # type: ignore[arg-type]
        duration=float(params["surge_duration_min"]) * MINUTE,  # type: ignore[arg-type]
        intensity=surge_intensity,
    )
    trace = flash_crowd_trace(
        "flash_crowd",
        rng,
        total=int(params["total_updates"]),  # type: ignore[arg-type]
        end=end,
        surges=(surge,),
    )
    in_surge = len(trace.updates_in(surge.at, surge.end))
    row: Dict[str, object] = {"updates_in_surge": in_surge}
    row.update(
        evaluate_delta(trace, float(params["delta_min"]) * MINUTE)  # type: ignore[arg-type]
    )
    return row


# ----------------------------------------------------------------------
# Diurnal load cycles
# ----------------------------------------------------------------------


@scenario(
    name="diurnal",
    description="Diurnal load cycles: LIMD vs baseline as day/night swing grows",
    axis="amplitude",
    values=(0.0, 0.25, 0.5, 0.75, 1.0),
    params={
        "base_rate_per_hour": 12.0,
        "days": 2.0,
        "peak_hour": 14.0,
        "delta_min": 10.0,
    },
    columns=(
        "amplitude",
        "updates",
        "limd_polls",
        "baseline_polls",
        "poll_ratio",
        "limd_fidelity_violations",
        "limd_fidelity_time",
    ),
    title="Diurnal cycles: polls and fidelity vs modulation amplitude",
    tags=("family", "workload"),
    prepare=prepare_params_seed,
)
def _diurnal_point(
    amplitude: float, *, params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    rng = random.Random(derive_seed(seed, f"diurnal[{float(amplitude)}]"))
    modulation = DiurnalModulation(
        base_rate=float(params["base_rate_per_hour"]) / HOUR,  # type: ignore[arg-type]
        amplitude=amplitude,
        period=DAY,
        peak_at=float(params["peak_hour"]) * HOUR,  # type: ignore[arg-type]
    )
    trace = diurnal_trace(
        "diurnal",
        rng,
        modulation,
        end=float(params["days"]) * DAY,  # type: ignore[arg-type]
    )
    row: Dict[str, object] = {"updates": trace.update_count}
    row.update(
        evaluate_delta(trace, float(params["delta_min"]) * MINUTE)  # type: ignore[arg-type]
    )
    return row


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
    report = collect_temporal(proxy, trace, delta).report
    return {
        "failures": schedule.failure_count,
        "downtime_fraction": (
            schedule.total_downtime / trace.duration if trace.duration else 0.0
        ),
        "recoveries": injector.recoveries,
        "polls": report.polls,
        "fidelity_violations": report.fidelity_by_violations,
        "fidelity_time": report.fidelity_by_time,
    }


# ----------------------------------------------------------------------
# Heterogeneous object mixes
# ----------------------------------------------------------------------


def _prepare_hetero_mix(
    params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    synthetic = poisson_trace(
        "synthetic",
        RngRegistry(seed).stream("hetero_mix.synthetic"),
        float(params["synthetic_rate_per_hour"]) / HOUR,  # type: ignore[arg-type]
        end=float(params["hours"]) * HOUR,  # type: ignore[arg-type]
    )
    return {
        "traces": {
            "news": news_trace(str(params["news"]), seed),
            "stock": stock_trace(str(params["stock"]), seed),
            "synthetic": synthetic,
        }
    }


@scenario(
    name="hetero_mix",
    description="Heterogeneous mix: news + stock + synthetic objects in one cache",
    axis="delta_min",
    values=(2.0, 5.0, 10.0, 20.0, 30.0),
    params={
        "news": "cnn_fn",
        "stock": "att",
        "synthetic_rate_per_hour": 6.0,
        "hours": 24.0,
    },
    columns=(
        "delta_min",
        "total_polls",
        "news_polls",
        "stock_polls",
        "synthetic_polls",
        "news_fidelity_time",
        "stock_fidelity_time",
        "synthetic_fidelity_time",
    ),
    title="Heterogeneous mix: one cache, three object classes, shared delta",
    tags=("family", "workload"),
    prepare=_prepare_hetero_mix,
)
def _hetero_mix_point(
    delta_min: float, *, traces: Mapping[str, object]
) -> Dict[str, object]:
    delta = delta_min * MINUTE
    result = run_individual(
        list(traces.values()),
        limd_policy_factory(
            delta, ttr_max=TTR_MAX, parameters=PAPER_LIMD_PARAMETERS
        ),
    )
    row: Dict[str, object] = {"total_polls": result.total_polls}
    for label, trace in traces.items():
        report = collect_temporal(result.proxy, trace, delta).report
        row[f"{label}_polls"] = report.polls
        row[f"{label}_fidelity_violations"] = report.fidelity_by_violations
        row[f"{label}_fidelity_time"] = report.fidelity_by_time
    return row


# ----------------------------------------------------------------------
# CDN-style edge trees under flash-crowd load
# ----------------------------------------------------------------------


@scenario(
    name="cdn_tree",
    description="CDN edge tree under a flash crowd: origin shielding vs edge staleness",
    axis="fan_out",
    values=(2, 4, 8),
    params={
        "depth": 3,
        "total_updates": 300,
        "hours": 12.0,
        "surge_start_hour": 6.0,
        "surge_duration_min": 30.0,
        "surge_intensity": 20.0,
        "delta_min": 10.0,
    },
    columns=(
        "fan_out",
        "nodes",
        "edge_nodes",
        "origin_requests",
        "total_polls",
        "polls_per_edge",
        "edge_fidelity_time",
    ),
    title="CDN tree: one shield level fanning out to fan_out^(depth-1) edges",
    tags=("family", "topology"),
    prepare=prepare_params_seed,
)
def _cdn_tree_point(
    fan_out: int, *, params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    rng = random.Random(derive_seed(seed, f"cdn_tree[{int(fan_out)}]"))
    end = float(params["hours"]) * HOUR  # type: ignore[arg-type]
    surge = SurgeWindow(
        at=float(params["surge_start_hour"]) * HOUR,  # type: ignore[arg-type]
        duration=float(params["surge_duration_min"]) * MINUTE,  # type: ignore[arg-type]
        intensity=float(params["surge_intensity"]),  # type: ignore[arg-type]
    )
    trace = flash_crowd_trace(
        "cdn_tree",
        rng,
        total=int(params["total_updates"]),  # type: ignore[arg-type]
        end=end,
        surges=(surge,),
    )
    depth = int(params["depth"])  # type: ignore[arg-type]
    delta = float(params["delta_min"]) * MINUTE  # type: ignore[arg-type]

    kernel, origin = build_core([trace])
    # One shield node polls the origin; every deeper level fans out.
    tree = TopologyTree(
        kernel,
        origin,
        [TreeLevel(fan_out=1)]
        + [TreeLevel(fan_out=int(fan_out)) for _ in range(depth - 1)],
    )
    tree.register_object(trace.object_id, limd_level_factory(delta))
    kernel.run(until=trace.end_time)

    edge_count = len(tree.edge_nodes)
    per_level = tree.polls_per_level()
    return {
        "nodes": tree.node_count,
        "edge_nodes": edge_count,
        "origin_requests": tree.origin_request_count(),
        "total_polls": sum(per_level),
        "polls_per_edge": per_level[-1] / edge_count,
        # The additive bound gives the edges depth*delta of slack.
        "edge_fidelity_time": mean_snapshot_fidelity(
            (node.proxy for node in tree.edge_nodes), [trace], depth * delta
        ),
    }


# ----------------------------------------------------------------------
# Hybrid push/pull trees: the message-cost crossover
# ----------------------------------------------------------------------


def _prepare_hybrid_push_pull(
    params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    return {
        "trace": news_trace(str(params["trace"]), seed),
        "edge_count": int(params["edge_count"]),  # type: ignore[arg-type]
    }


@scenario(
    name="hybrid_push_pull",
    description="Push root / polling edges vs pure pull: the message-cost crossover",
    axis="delta_min",
    values=(1.0, 5.0, 10.0, 30.0),
    params={"trace": "cnn_fn", "edge_count": 4},
    columns=(
        "delta_min",
        "hybrid_messages",
        "pull_messages",
        "message_ratio",
        "hybrid_origin_requests",
        "pull_origin_requests",
        "hybrid_edge_fidelity",
        "pull_edge_fidelity",
    ),
    title="Hybrid push/pull tree vs pure pull across the edge-delta sweep",
    tags=("family", "topology", "push"),
    prepare=_prepare_hybrid_push_pull,
)
def _hybrid_push_pull_point(
    delta_min: float, *, trace: UpdateTrace, edge_count: int
) -> Dict[str, object]:
    delta = float(delta_min) * MINUTE

    def run_tree(root_mode: str) -> Dict[str, object]:
        kernel, origin = build_core([trace])
        tree = TopologyTree(
            kernel,
            origin,
            [
                TreeLevel(fan_out=1, mode=root_mode),
                TreeLevel(fan_out=edge_count),
            ],
        )
        tree.register_object(trace.object_id, limd_level_factory(delta))
        kernel.run(until=trace.end_time)
        return {
            # Every message on the wire: conditional GETs at both
            # levels, plus (for the push root) one notification per
            # update pushed down by the origin.
            "messages": tree.total_polls() + tree.push_notifications(),
            "origin_requests": tree.origin_request_count(),
            "edge_fidelity": mean_snapshot_fidelity(
                (node.proxy for node in tree.edge_nodes), [trace], 2 * delta
            ),
        }

    hybrid = run_tree("push")
    pull = run_tree("pull")
    return {
        "hybrid_messages": hybrid["messages"],
        "pull_messages": pull["messages"],
        "message_ratio": hybrid["messages"] / pull["messages"],
        "hybrid_origin_requests": hybrid["origin_requests"],
        "pull_origin_requests": pull["origin_requests"],
        "hybrid_edge_fidelity": hybrid["edge_fidelity"],
        "pull_edge_fidelity": pull["edge_fidelity"],
    }
