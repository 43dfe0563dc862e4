"""Extension bench — LIMD vs the prior-art policies it supersedes.

The paper positions LIMD against the TTL mechanisms of its related
work: static TTLs (Mogul [7]) and the Alex adaptive TTL used by client
polling (Cate [2], Gwertzman & Seltzer [5]).  This bench runs all three
plus the Δ-baseline on the CNN/FN workload at Δ = 10 min and checks the
positioning the paper argues for:

* the Δ-baseline buys perfect fidelity at the highest poll cost;
* LIMD cuts polls substantially while keeping most of the fidelity;
* Alex (pure age signal, no violation feedback) is less efficient than
  LIMD in fidelity-per-poll on diurnal news data.
"""

from __future__ import annotations

from functools import partial

from repro.consistency.base import fixed_policy_factory
from repro.consistency.limd import limd_policy_factory
from repro.consistency.ttl import alex_policy_factory, static_ttl_policy_factory
from repro.core.types import MINUTE
from repro.api.render import render_dict_rows
from repro.api.runs import run_individual
from repro.api.executors import executor_for
from repro.experiments.workloads import news_trace
from repro.metrics.collector import collect_temporal

DELTA = 10 * MINUTE
TTR_MAX = 60 * MINUTE


POLICY_NAMES = ("baseline", "static_ttl", "alex", "limd")


def _make_factory(name):
    # Factories are closures (not picklable), so workers rebuild them
    # from the policy name rather than receiving them bound.
    return {
        "baseline": lambda: fixed_policy_factory(DELTA),
        "static_ttl": lambda: static_ttl_policy_factory(DELTA),
        "alex": lambda: alex_policy_factory(ttr_min=DELTA, ttr_max=TTR_MAX),
        "limd": lambda: limd_policy_factory(DELTA, ttr_max=TTR_MAX),
    }[name]()


def _policy_row(name, *, trace):
    result = run_individual([trace], _make_factory(name))
    report = collect_temporal(result.proxy, trace, DELTA).report
    return {
        "policy": name,
        "polls": report.polls,
        "fidelity": report.fidelity_by_violations,
        "fidelity_time": report.fidelity_by_time,
        "efficiency": report.fidelity_by_time / max(report.polls, 1),
    }


def _evaluate_all(*, workers=None):
    trace = news_trace("cnn_fn")
    return executor_for(workers).map(
        partial(_policy_row, trace=trace), POLICY_NAMES
    )


def test_extension_prior_policies(run_once):
    rows = run_once(_evaluate_all)
    print()
    print(
        render_dict_rows(
            rows,
            title=(
                "Extension: LIMD vs prior-art TTL policies "
                "(CNN/FN, delta = 10 min)"
            ),
        )
    )

    by_name = {row["policy"]: row for row in rows}

    # Baseline and static TTL are the same mechanism — identical output.
    assert by_name["baseline"]["polls"] == by_name["static_ttl"]["polls"]
    assert by_name["baseline"]["fidelity"] == 1.0

    # LIMD polls less than the baseline.
    assert by_name["limd"]["polls"] < by_name["baseline"]["polls"]

    # LIMD's fidelity-per-poll efficiency beats the baseline's and
    # matches-or-beats Alex's.
    assert by_name["limd"]["efficiency"] > by_name["baseline"]["efficiency"]
    assert (
        by_name["limd"]["efficiency"] >= by_name["alex"]["efficiency"] * 0.9
    )

    # Every policy keeps the object usably fresh.
    for row in rows:
        assert row["fidelity_time"] >= 0.5
