"""Extension bench — server push vs proxy polling (footnote 1).

The paper defers server-based (push) consistency; this extension
implements it and quantifies the trade-off the footnote implies on the
CNN/FN workload:

* push achieves strong consistency (zero out-of-sync time at any Δ)
  with exactly one fetch per update;
* LIMD polling at Δ = 10 min costs more messages than push on this
  workload (polls ≥ updates) but needs no server-side state;
* the message-cost ratio shrinks as Δ loosens — polling's cost is set
  by Δ, push's by the update rate.
"""

from __future__ import annotations

from functools import partial

from repro.consistency.limd import limd_policy_factory
from repro.core.types import MINUTE
from repro.api.render import render_dict_rows
from repro.api.runs import build_core, run_individual
from repro.api.executors import executor_for
from repro.experiments.workloads import news_trace
from repro.metrics.collector import collect_temporal
from repro.topology.levels import TreeLevel
from repro.topology.tree import TopologyTree

TTR_MAX = 60 * MINUTE


def _run_push(trace):
    """One proxy under origin push: a one-level push-mode tree."""
    kernel, server = build_core([trace])
    tree = TopologyTree(kernel, server, [TreeLevel(mode="push")])
    tree.register_object(trace.object_id)
    kernel.run(until=trace.end_time)
    return tree


def _mechanism_row(delta_min, *, trace):
    """One comparison row: push (delta_min None) or LIMD at delta_min."""
    if delta_min is None:
        tree = _run_push(trace)
        push_proxy = tree.root.proxy
        push_report = collect_temporal(push_proxy, trace, delta=1.0).report
        return {
            "mechanism": "push",
            "delta_min": None,
            "messages": tree.total_polls() + tree.push_notifications(),
            "fetches": push_proxy.entry_for(trace.object_id).poll_count,
            "fidelity_time": push_report.fidelity_by_time,
            "out_sync_s": push_report.out_sync_time,
        }
    delta = delta_min * MINUTE
    result = run_individual(
        [trace], limd_policy_factory(delta, ttr_max=TTR_MAX)
    )
    report = collect_temporal(result.proxy, trace, delta).report
    return {
        "mechanism": "limd",
        "delta_min": delta_min,
        "messages": report.polls,
        "fetches": report.polls,
        "fidelity_time": report.fidelity_by_time,
        "out_sync_s": report.out_sync_time,
    }


def _evaluate(*, workers=None):
    trace = news_trace("cnn_fn")
    return executor_for(workers).map(
        partial(_mechanism_row, trace=trace), [None, 1, 10, 30]
    )


def test_extension_push_vs_poll(run_once):
    rows = run_once(_evaluate)
    print()
    print(
        render_dict_rows(
            rows,
            title="Extension: server push vs LIMD polling (CNN/FN)",
        )
    )

    push = rows[0]
    # (1) Push is strongly consistent: zero out-of-sync time even at a
    # 1-second evaluation bound.
    assert push["out_sync_s"] == 0.0
    assert push["fidelity_time"] == 1.0
    # (2) Push fetches exactly once per update (plus the initial fetch).
    trace_updates = 113  # CNN/FN calibration
    assert push["fetches"] == trace_updates + 1

    # (3) Tight polling costs more messages than push; loose polling
    # can undercut it (at a staleness cost).
    limd_by_delta = {row["delta_min"]: row for row in rows[1:]}
    assert limd_by_delta[1]["messages"] > push["messages"]
    assert limd_by_delta[30]["messages"] < limd_by_delta[1]["messages"]
    # (4) Polling never beats push on fidelity.
    for row in rows[1:]:
        assert row["fidelity_time"] <= 1.0
