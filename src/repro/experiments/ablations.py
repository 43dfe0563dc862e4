"""Ablation studies for the design choices called out in DESIGN.md.

Each ablation isolates one mechanism and quantifies its effect:

* ``ablation_history`` — violation-detection modes (§5.1): the exact
  history extension vs plain Last-Modified vs probabilistic inference.
* ``ablation_heuristic_threshold`` — the rate-ratio gate of the §3.2
  heuristic, swept from permissive to strict.
* ``ablation_trigger_semantics`` — triggered polls as *additional*
  polls (paper semantics) vs polls that *replace* the next scheduled
  refresh.
* ``ablation_partition`` — static 50/50 δ split vs dynamic rate-based
  re-apportioning (§4.2).
* ``ablation_smoothing`` — the α knob of Eq. 10 (conservatism vs
  responsiveness for low-locality data).
* ``ablation_limd_parameters`` — LIMD's l (growth) and m (back-off)
  knobs (§3.1).
* ``ablation_latency`` — sensitivity of LIMD to network latency (the
  paper's §6.1.1 assumption).

Each is a registered scenario (``repro scenarios run ablation_*``;
``repro ablations`` prints all seven), so each configuration in a grid
is an independent simulation executed through the ordered
serial/parallel executor seam (``workers`` > 1 fans out over worker
processes).  The point functions are module level and take only
picklable arguments (traces, parameter dataclasses) so they can cross
the process boundary; policy factories are closures and are rebuilt
inside the point.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.api.runs import (
    build_stack,
    run_individual,
    run_mutual_temporal,
    run_mutual_value_partitioned,
)
from repro.consistency.adaptive_value import AdaptiveValueParameters
from repro.consistency.limd import LimdParameters, limd_policy_factory
from repro.consistency.mutual_temporal import (
    MutualTemporalCoordinator,
    MutualTemporalMode,
)
from repro.consistency.mutual_value import PartitionParameters
from repro.core.types import MINUTE, Seconds, TTRBounds
from repro.experiments.figure7 import VALUE_BOUNDS
from repro.experiments.paper import PAPER_LIMD_PARAMETERS, TTR_MAX
from repro.experiments.workloads import news_trace
from repro.groups.registry import GroupRegistry
from repro.httpsim.network import LatencyModel
from repro.metrics.collector import (
    collect_mutual_synchrony,
    collect_mutual_value,
    collect_temporal,
)
from repro.scenarios.engine import ScenarioResult
from repro.scenarios.registry import Claim, Verdict, scenario
from repro.traces.model import UpdateTrace
from repro.traces.news import table2_traces
from repro.traces.stocks import table3_traces

DETECTION_MODES = ("history", "last_modified_only", "inferred")

#: Named LIMD tunings swept by ``ablation_limd_parameters`` (§3.1).
LIMD_TUNINGS: Dict[str, LimdParameters] = {
    "conservative": LimdParameters(linear_increase=0.05, epsilon=0.02),
    "paper": PAPER_LIMD_PARAMETERS,
    "optimistic": LimdParameters(linear_increase=0.5, epsilon=0.02),
    "hard_backoff": LimdParameters(
        linear_increase=0.2, epsilon=0.02, multiplicative_decrease=0.2
    ),
    "soft_backoff": LimdParameters(
        linear_increase=0.2, epsilon=0.02, multiplicative_decrease=0.8
    ),
}


def _prepare_news_trace(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    return {
        "trace": news_trace(str(params["trace"]), seed),
        "delta": float(params["delta_s"]),  # type: ignore[arg-type]
    }


def _prepare_news_pair(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    key_a, key_b = params["pair"]  # type: ignore[misc]
    trace_a, trace_b = table2_traces((str(key_a), str(key_b)), seed)
    return {
        "trace_a": trace_a,
        "trace_b": trace_b,
        "delta": float(params["delta_s"]),  # type: ignore[arg-type]
        "mutual_delta": float(params["mutual_delta_s"]),  # type: ignore[arg-type]
    }


def _prepare_stock_pair(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    key_a, key_b = params["pair"]  # type: ignore[misc]
    trace_a, trace_b = table3_traces((str(key_a), str(key_b)), seed)
    context: Dict[str, object] = {
        "trace_a": trace_a,
        "trace_b": trace_b,
        "mutual_delta": float(params["mutual_delta"]),  # type: ignore[arg-type]
        "bounds": TTRBounds(
            ttr_min=float(params["ttr_min"]),  # type: ignore[arg-type]
            ttr_max=float(params["ttr_max"]),  # type: ignore[arg-type]
        ),
    }
    if "reapportion_interval_s" in params:
        context["reapportion_interval_s"] = float(
            params["reapportion_interval_s"]  # type: ignore[arg-type]
        )
    return context


_NEWS_PAIR_PARAMS = {
    "pair": ("cnn_fn", "nyt_ap"),
    "delta_s": 10 * MINUTE,
    "mutual_delta_s": 2 * MINUTE,
}

_STOCK_PAIR_PARAMS = {
    "pair": ("att", "yahoo"),
    "mutual_delta": 0.6,
    "ttr_min": VALUE_BOUNDS.ttr_min,
    "ttr_max": VALUE_BOUNDS.ttr_max,
}


def _reactivity_orders_the_modes(result: ScenarioResult) -> Verdict:
    by_mode = {row["detection"]: row for row in result.rows}
    history, blind, inferred = (by_mode[mode] for mode in DETECTION_MODES)
    return (
        history["polls"] >= blind["polls"] * 0.95
        and inferred["polls"] >= blind["polls"] * 0.9
        and history["fidelity"] >= blind["fidelity"] - 0.05
        and all(0.5 <= row["fidelity"] <= 1.0 for row in result.rows),
        "; ".join(
            f"{row['detection']} {row['polls']} polls for fidelity "
            f"{row['fidelity']:.2f}"
            for row in result.rows
        ),
    )

@scenario(
    name="ablation_history",
    description="Ablation: violation-detection modes (history vs inference)",
    axis="detection",
    values=DETECTION_MODES,
    params={"trace": "guardian", "delta_s": 5 * MINUTE},
    title="Ablation: violation detection modes",
    tags=("ablation",),
    prepare=_prepare_news_trace,
    claims=(
        Claim(
            "ablation_history.reactivity_orders_the_modes",
            "The exact history mode detects the most violations and polls "
            "most; plain Last-Modified misses Figure 1(b) patterns and "
            "under-polls at a fidelity cost; inference sits between.",
            _reactivity_orders_the_modes,
        ),
    ),
)
def _history_point(
    mode: str, *, trace: UpdateTrace, delta: Seconds
) -> Dict[str, object]:
    """Compare violation-detection modes on a fast-changing trace.

    The Guardian trace updates every ~4.9 min, so a 5-min bound makes
    Figure 1(b)-style multi-update intervals common — exactly where the
    modes differ.
    """
    result = run_individual(
        [trace],
        limd_policy_factory(
            delta,
            ttr_max=TTR_MAX,
            parameters=PAPER_LIMD_PARAMETERS,
            detection_mode=mode,
        ),
        supports_history=(mode == "history"),
        want_history=(mode == "history"),
    )
    report = collect_temporal(result.proxy, trace, delta)
    return {
        "detection": mode,
        "polls": report.polls,
        "violations": report.violations,
        "fidelity": report.fidelity_by_violations,
        "fidelity_time": report.fidelity_by_time,
    }


def _stricter_gate_triggers_less(result: ScenarioResult) -> Verdict:
    loose, strict = result.rows[0], result.rows[-1]
    return (
        loose["extra_polls"] >= strict["extra_polls"]
        and strict["suppressed_slower"] >= loose["suppressed_slower"]
        and loose["fidelity"] >= strict["fidelity"] - 0.02,
        f"from threshold {loose['threshold']:g} to {strict['threshold']:g}: "
        f"{loose['extra_polls']} → {strict['extra_polls']} extra polls, "
        f"{loose['suppressed_slower']} → {strict['suppressed_slower']} "
        f"suppressions, fidelity {loose['fidelity']:.2f} → {strict['fidelity']:.2f}",
    )

@scenario(
    name="ablation_heuristic_threshold",
    description="Ablation: rate-ratio gate of the mutual heuristic",
    axis="threshold",
    values=(0.25, 0.5, 0.8, 1.0, 2.0),
    params=_NEWS_PAIR_PARAMS,
    title="Ablation: heuristic rate-ratio threshold",
    tags=("ablation",),
    prepare=_prepare_news_pair,
    claims=(
        Claim(
            "ablation_heuristic_threshold.stricter_gate_triggers_less",
            "Stricter gates suppress more triggers and shed fidelity: the "
            "knob spans the baseline-to-triggered spectrum.",
            _stricter_gate_triggers_less,
        ),
    ),
)
def _threshold_point(
    threshold: float,
    *,
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    delta: Seconds,
    mutual_delta: Seconds,
) -> Dict[str, object]:
    """Sweep the §3.2 heuristic's rate-ratio gate."""
    factory = limd_policy_factory(
        delta, ttr_max=TTR_MAX, parameters=PAPER_LIMD_PARAMETERS
    )
    result = run_mutual_temporal(
        (trace_a, trace_b),
        factory,
        mutual_delta,
        MutualTemporalMode.HEURISTIC,
        rate_ratio_threshold=threshold,
    )
    synchrony = collect_mutual_synchrony(
        result.proxy, trace_a.object_id, trace_b.object_id, mutual_delta
    )
    coordinator = result.coordinator
    return {
        "threshold": threshold,
        "polls": synchrony.total_polls,
        "extra_polls": coordinator.extra_polls,
        "suppressed_slower": coordinator.counters.get(
            "suppressed_slower_rate"
        ),
        "fidelity": synchrony.report.fidelity_by_violations,
    }


def _both_semantics_synchronise(result: ScenarioResult) -> Verdict:
    by_mode = {row["semantics"]: row for row in result.rows}
    additional, replace = by_mode["additional"], by_mode["replace"]
    return (
        additional["fidelity"] == 1.0
        and replace["fidelity"] == 1.0
        and additional["extra_polls"] > 0
        and replace["extra_polls"] > 0
        and replace["polls"] <= additional["polls"] * 1.1,
        f"fidelity {additional['fidelity']:g} and {replace['fidelity']:g}, "
        f"{additional['polls']} polls when triggers add, {replace['polls']} "
        "when they replace",
    )

@scenario(
    name="ablation_trigger_semantics",
    description="Ablation: triggered polls as additional vs replacing polls",
    axis="semantics",
    values=("additional", "replace"),
    params=_NEWS_PAIR_PARAMS,
    title="Ablation: trigger semantics",
    tags=("ablation",),
    prepare=_prepare_news_pair,
    claims=(
        Claim(
            "ablation_trigger_semantics.both_semantics_synchronise",
            "Both semantics reach operational fidelity 1; a triggered poll "
            "that replaces the next scheduled one absorbs some poll budget.",
            _both_semantics_synchronise,
        ),
    ),
)
def _trigger_point(
    semantics: str,
    *,
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    delta: Seconds,
    mutual_delta: Seconds,
) -> Dict[str, object]:
    """Triggered polls as additional vs schedule-replacing polls.

    The paper's accounting treats triggered polls as *extra* polls on
    top of the unchanged LIMD schedule.  The alternative — letting a
    triggered poll replace the next scheduled one — re-phases the LIMD
    schedule toward the partner's update instants.
    """
    kernel, server, proxy = build_stack((trace_a, trace_b))
    proxy.triggered_polls_reschedule = semantics == "replace"
    groups = GroupRegistry()
    groups.create_group(
        "pair", (trace_a.object_id, trace_b.object_id), mutual_delta
    )
    coordinator = MutualTemporalCoordinator(
        proxy, groups, mode=MutualTemporalMode.TRIGGERED
    )
    factory = limd_policy_factory(
        delta, ttr_max=TTR_MAX, parameters=PAPER_LIMD_PARAMETERS
    )
    for trace in (trace_a, trace_b):
        proxy.register_object(trace.object_id, server, factory(trace.object_id))
    kernel.run(until=max(trace_a.end_time, trace_b.end_time))
    synchrony = collect_mutual_synchrony(
        proxy, trace_a.object_id, trace_b.object_id, mutual_delta
    )
    return {
        "semantics": semantics,
        "polls": synchrony.total_polls,
        "extra_polls": coordinator.extra_polls,
        "fidelity": synchrony.report.fidelity_by_violations,
    }


def _dynamic_split_favours_the_slow_object(result: ScenarioResult) -> Verdict:
    by_split = {row["split"]: row for row in result.rows}
    static, dynamic = by_split["static"], by_split["dynamic"]
    return (
        dynamic["fidelity"] >= static["fidelity"] - 0.02
        and static["final_delta_a"] == static["final_delta_b"]
        and dynamic["final_delta_a"] > dynamic["final_delta_b"],
        f"the dynamic split ends at ${dynamic['final_delta_a']:.3f} (AT&T) / "
        f"${dynamic['final_delta_b']:.3f} (Yahoo) for fidelity "
        f"{dynamic['fidelity']:.2f} against the static split's "
        f"{static['fidelity']:.2f}",
    )

@scenario(
    name="ablation_partition",
    description="Ablation: static vs dynamic mutual-delta split",
    axis="split",
    values=("static", "dynamic"),
    params={**_STOCK_PAIR_PARAMS, "reapportion_interval_s": 60.0},
    title="Ablation: static vs dynamic delta split",
    tags=("ablation",),
    prepare=_prepare_stock_pair,
    claims=(
        Claim(
            "ablation_partition.dynamic_split_favours_the_slow_object",
            "Dynamic apportioning shifts tolerance toward the slow object "
            "(AT&T), tightens the fast one (Yahoo) and costs no fidelity.",
            _dynamic_split_favours_the_slow_object,
        ),
    ),
)
def _partition_point(
    split: str,
    *,
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    mutual_delta: float,
    bounds: TTRBounds,
    reapportion_interval_s: float,
) -> Dict[str, object]:
    """Static 50/50 δ split vs dynamic rate-based re-apportioning."""
    interval = None if split == "static" else reapportion_interval_s
    result = run_mutual_value_partitioned(
        (trace_a, trace_b),
        mutual_delta,
        bounds=bounds,
        parameters=PartitionParameters(reapportion_interval=interval),
    )
    pair_report = collect_mutual_value(
        result.proxy, trace_a, trace_b, mutual_delta
    )
    delta_a, delta_b = result.coordinator.current_tolerances().values()
    return {
        "split": split,
        "polls": pair_report.total_polls,
        "fidelity": pair_report.report.fidelity_by_violations,
        "fidelity_time": pair_report.report.fidelity_by_time,
        "final_delta_a": delta_a,
        "final_delta_b": delta_b,
    }


def _small_alpha_polls_more(result: ScenarioResult) -> Verdict:
    low, high = result.rows[0], result.rows[-1]
    return (
        low["polls"] >= high["polls"]
        and low["fidelity"] >= high["fidelity"] - 0.02
        and (low["polls"] > high["polls"] or low["fidelity"] > high["fidelity"]),
        f"from α = {low['alpha']:g} to {high['alpha']:g} polls go "
        f"{low['polls']} → {high['polls']} and fidelity "
        f"{low['fidelity']:.2f} → {high['fidelity']:.2f}",
    )

@scenario(
    name="ablation_smoothing",
    description="Ablation: Eq. 10 smoothing-alpha sweep",
    axis="alpha",
    values=(0.3, 0.5, 0.7, 0.9, 1.0),
    params=_STOCK_PAIR_PARAMS,
    title="Ablation: Eq. 10 alpha sweep",
    tags=("ablation",),
    prepare=_prepare_stock_pair,
    claims=(
        Claim(
            "ablation_smoothing.small_alpha_polls_more",
            "Data with less locality is handled by picking a small α, "
            "biasing toward conservative TTRs and so polling more often.",
            _small_alpha_polls_more,
        ),
    ),
)
def _smoothing_point(
    alpha: float,
    *,
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    mutual_delta: float,
    bounds: TTRBounds,
) -> Dict[str, object]:
    """Sweep Eq. 10's α on the partitioned Mv approach."""
    result = run_mutual_value_partitioned(
        (trace_a, trace_b),
        mutual_delta,
        bounds=bounds,
        parameters=PartitionParameters(
            value_parameters=AdaptiveValueParameters(alpha=alpha)
        ),
    )
    pair_report = collect_mutual_value(
        result.proxy, trace_a, trace_b, mutual_delta
    )
    return {
        "alpha": alpha,
        "polls": pair_report.total_polls,
        "fidelity": pair_report.report.fidelity_by_violations,
        "fidelity_time": pair_report.report.fidelity_by_time,
    }


def _l_and_m_trade_polls_for_fidelity(result: ScenarioResult) -> Verdict:
    by_tuning = {row["tuning"]: row for row in result.rows}
    conservative, paper, optimistic, hard, soft = (
        by_tuning[name] for name in LIMD_TUNINGS
    )
    return (
        conservative["polls"] > paper["polls"] > optimistic["polls"]
        and conservative["fidelity_time"]
        >= paper["fidelity_time"]
        >= optimistic["fidelity_time"]
        and hard["polls"] > soft["polls"]
        and hard["fidelity_time"] > soft["fidelity_time"]
        and all(row["fidelity_time"] > 0.8 for row in result.rows),
        "; ".join(
            f"{row['tuning']} {row['polls']} polls for {row['fidelity_time']:.3f}"
            for row in result.rows
        ),
    )

@scenario(
    name="ablation_limd_parameters",
    description="Ablation: LIMD growth/back-off tunings",
    axis="tuning",
    values=tuple(LIMD_TUNINGS),
    params={"trace": "cnn_fn", "delta_s": 10 * MINUTE},
    title="Ablation: LIMD l/m tuning",
    tags=("ablation",),
    prepare=_prepare_news_trace,
    claims=(
        Claim(
            "ablation_limd_parameters.l_and_m_trade_polls_for_fidelity",
            "A large linear growth factor makes LIMD optimistic and reduces "
            "polls; a strong multiplicative back-off makes it conservative "
            "and buys fidelity with polls (§3.1).",
            _l_and_m_trade_polls_for_fidelity,
        ),
    ),
)
def _limd_parameters_point(
    tuning: str, *, trace: UpdateTrace, delta: Seconds
) -> Dict[str, object]:
    """Sweep LIMD's l (growth) and m (back-off) knobs (§3.1).

    Adaptive m is the paper's evaluation setting (m = Δ / observed
    out-of-sync time).
    """
    parameters = LIMD_TUNINGS[tuning]
    result = run_individual(
        [trace],
        limd_policy_factory(delta, ttr_max=TTR_MAX, parameters=parameters),
    )
    report = collect_temporal(result.proxy, trace, delta)
    m = parameters.multiplicative_decrease
    return {
        "tuning": tuning,
        "l": parameters.linear_increase,
        "m": "adaptive" if m is None else m,
        "polls": report.polls,
        "violations": report.violations,
        "fidelity": report.fidelity_by_violations,
        "fidelity_time": report.fidelity_by_time,
    }


def _latency_is_harmless_below_delta(result: ScenarioResult) -> Verdict:
    zero, small, worst = result.rows[0], result.rows[1], result.rows[-1]
    return (
        zero["one_way_latency_s"] == 0.0
        and worst["latency_over_delta"] == 1.0
        and worst["fidelity_time"] < zero["fidelity_time"] - 0.05
        and small["latency_over_delta"] <= 0.5
        and abs(small["fidelity_time"] - zero["fidelity_time"]) < 0.02
        and worst["polls"] < zero["polls"],
        f"fidelity by time {zero['fidelity_time']:.3f} at no latency, "
        f"{small['fidelity_time']:.3f} at {small['latency_over_delta']:g} Δ, "
        f"{worst['fidelity_time']:.3f} at {worst['latency_over_delta']:g} Δ; "
        f"polls {zero['polls']} → {worst['polls']}",
    )

@scenario(
    name="ablation_latency",
    description="Ablation: network-latency sensitivity of LIMD",
    axis="one_way_latency_s",
    values=(0.0, 30.0, 150.0, 300.0, 600.0),
    params={"trace": "cnn_fn", "delta_s": 10 * MINUTE},
    title="Ablation: network-latency sensitivity",
    tags=("ablation",),
    prepare=_prepare_news_trace,
    claims=(
        Claim(
            "ablation_latency.latency_is_harmless_below_delta",
            "Latencies well below Δ are harmless (the regime §6.1.1 fixes); "
            "fidelity degrades as the one-way latency approaches Δ and the "
            "round trip stretches the effective poll period.",
            _latency_is_harmless_below_delta,
        ),
    ),
)
def _latency_point(
    latency: Seconds, *, trace: UpdateTrace, delta: Seconds
) -> Dict[str, object]:
    """Sensitivity of LIMD to network latency (the paper's §6.1.1 fix).

    The paper fixes latency ("we are primarily interested in efficacy of
    cache consistency mechanisms rather than network dynamics"); this
    ablation quantifies what that assumption hides.  A poll's response
    arrives one round trip after it was issued, so the effective poll
    period stretches by 2·latency and the copy's staleness floor rises —
    fidelity degrades as the one-way latency approaches Δ.  The copy is
    scored from the version each response carried, so the return leg's
    staleness (the origin state is one latency old on arrival) is
    charged too.
    """
    result = run_individual(
        [trace],
        limd_policy_factory(
            delta, ttr_max=TTR_MAX, parameters=PAPER_LIMD_PARAMETERS
        ),
        latency=LatencyModel(one_way=latency),
    )
    report = collect_temporal(result.proxy, trace, delta)
    return {
        "one_way_latency_s": latency,
        "latency_over_delta": latency / delta,
        "polls": report.polls,
        "fidelity": report.fidelity_by_violations,
        "fidelity_time": report.fidelity_by_time,
    }
