"""Every paper claim, run full-size and pinned per seed.

A claim is stated once, as a :class:`~repro.scenarios.registry.Claim`
beside the scenario it judges; ``repro report`` prints the paper
artefacts' verdicts and this module pins every one: figures 3-8 and the
workload families at five seeds, everything else at the default seed,
Figure 3 also on each Table 2 trace (the technical report's sweep) and
Figure 5 also on the most rate-disparate pair.  Every registered
scenario states at least one claim.

:data:`DOES_NOT_HOLD` is the whole ledger of known divergences, strict
in both directions: a claim that fails on a run not listed fails the
suite, and so does a listed one that starts to hold — whoever fixes a
divergence deletes its line.
"""

from __future__ import annotations

import pytest

from repro.api.runs import run_individual
from repro.consistency.base import fixed_policy_factory
from repro.consistency.limd import limd_policy_factory
from repro.consistency.ttl import alex_policy_factory, static_ttl_policy_factory
from repro.core.rng import DEFAULT_SEED
from repro.core.types import MINUTE
from repro.experiments import figure4, figure6, figure8
from repro.experiments.workloads import news_trace
from repro.metrics.collector import collect_temporal
from repro.scenarios.engine import run_scenario
from repro.scenarios.registry import SCENARIOS

SEEDS = (DEFAULT_SEED, 1, 3, 5, 1077)
TABLE2_TRACES = ("cnn_fn", "nyt_ap", "nyt_reuters", "guardian")
DISPARATE_PAIR = ("guardian", "cnn_fn")

#: The time-series figures hang their claims on the module: a claim
#: there judges the ``FigureNResult``, which the summary row drops.
SERIES_FIGURES = {"figure4": figure4, "figure6": figure6, "figure8": figure8}

#: claim id -> the runs on which it does not hold.  A run is named by
#: its seed, or by the trace / pair it swaps in at the default seed.
DOES_NOT_HOLD = {
    "figure3.fewer_polls_at_tight_delta": {"guardian"},
    "figure5.triggered_fidelity_is_one": {3, 5, 1077, "guardian+cnn_fn"},
    "figure5.heuristic_between_baseline_and_triggered": {1},
    "figure5.heuristic_fidelity_in_paper_range": {*SEEDS, "guardian+cnn_fn"},
    "figure7.partitioned_trades_polls_for_fidelity": {DEFAULT_SEED, 1, 3, 5},
}


def _claims_of(name):
    module = SERIES_FIGURES.get(name)
    return module.CLAIMS if module else SCENARIOS.get(name).claims


def _seeds_of(name):
    if name.startswith("figure") or "family" in SCENARIOS.get(name).spec.tags:
        return SEEDS
    return SEEDS[:1]


#: (scenario, run key, seed, params) for every pinned run.
RUNS = [
    (name, seed, seed, None)
    for name in SCENARIOS.names()
    for seed in _seeds_of(name)
]
RUNS += [("figure3", key, DEFAULT_SEED, {"trace": key}) for key in TABLE2_TRACES[1:]]
RUNS += [("figure5", "guardian+cnn_fn", DEFAULT_SEED, {"pair": DISPARATE_PAIR})]


@pytest.mark.parametrize(
    "name, key, seed, params", RUNS, ids=[f"{run[0]}-{run[1]}" for run in RUNS]
)
def test_claims_hold_except_where_listed(name, key, seed, params):
    if name in SERIES_FIGURES:
        result = SERIES_FIGURES[name].run(seed=seed)
    else:
        result = run_scenario(name, seed=seed, params=params)
    verdicts = {claim.id: claim.check(result) for claim in _claims_of(name)}
    failing = {claim_id for claim_id, (holds, _) in verdicts.items() if not holds}
    listed = {
        claim_id for claim_id in verdicts if key in DOES_NOT_HOLD.get(claim_id, ())
    }
    assert failing == listed, {
        claim_id: verdicts[claim_id][1] for claim_id in failing ^ listed
    }


class TestLedger:
    claims = {
        claim.id: claim for name in SCENARIOS.names() for claim in _claims_of(name)
    }

    def test_every_scenario_states_a_claim(self):
        for name in SCENARIOS.names():
            assert _claims_of(name), name
            for claim in _claims_of(name):
                assert claim.id.startswith(name + "."), claim.id
        for name in SERIES_FIGURES:
            assert not SCENARIOS.get(name).claims  # one home per claim

    def test_claim_ids_are_unique(self):
        assert len(self.claims) == sum(
            len(_claims_of(name)) for name in SCENARIOS.names()
        )

    def test_listed_divergences_are_real_claims_on_real_runs(self):
        for claim_id, keys in DOES_NOT_HOLD.items():
            artefact = claim_id.split(".")[0]
            assert claim_id in self.claims
            assert keys <= {run[1] for run in RUNS if run[0] == artefact}
        # A claim says why it diverges exactly when it is known to.
        for claim_id, claim in self.claims.items():
            assert bool(claim.divergence) == (claim_id in DOES_NOT_HOLD), claim_id


def test_tr_faster_traces_leave_limd_less_to_skip():
    """TR 00-47: what needs all four Table 2 traces at once — the floor
    and the ordering of the Δ = 1 min advantage."""
    ratio = {}
    for trace in TABLE2_TRACES:
        sweep = run_scenario("figure3", params={"trace": trace}, values=(1,))
        ratio[trace] = sweep.rows[0]["poll_ratio"]
    assert all(value > 2.0 for value in ratio.values()), ratio
    assert ratio["guardian"] <= ratio["cnn_fn"]


def test_extension_prior_policies():
    """LIMD against the TTL mechanisms of the paper's related work (also
    only here)."""
    trace = news_trace("cnn_fn")
    delta, ttr_max = 10 * MINUTE, 60 * MINUTE
    factories = {
        "baseline": fixed_policy_factory(delta),
        "static_ttl": static_ttl_policy_factory(delta),
        "alex": alex_policy_factory(ttr_min=delta, ttr_max=ttr_max),
        "limd": limd_policy_factory(delta, ttr_max=ttr_max),
    }
    report = {
        name: collect_temporal(
            run_individual([trace], factory).proxy, trace, delta
        )
        for name, factory in factories.items()
    }
    efficiency = {
        name: r.fidelity_by_time / max(r.polls, 1) for name, r in report.items()
    }

    # Baseline and static TTL are the same mechanism — identical output.
    assert report["baseline"].polls == report["static_ttl"].polls
    assert report["baseline"].fidelity_by_violations == 1.0
    # LIMD polls less than the baseline.
    assert report["limd"].polls < report["baseline"].polls
    # LIMD's fidelity-per-poll efficiency beats the baseline's and
    # matches-or-beats Alex's.
    assert efficiency["limd"] > efficiency["baseline"]
    assert efficiency["limd"] >= efficiency["alex"] * 0.9
    # Every policy keeps the object usably fresh.
    for r in report.values():
        assert r.fidelity_by_time >= 0.5
