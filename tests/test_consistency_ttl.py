"""Unit tests for the prior-art TTL policies (static TTL, Alex)."""

from __future__ import annotations

import pytest

from repro.api import (
    PolicyConfig,
    SimulationConfig,
    TopologyConfig,
    WorkloadConfig,
    run_simulation,
)
from repro.consistency.ttl import (
    AlexParameters,
    AlexTTLPolicy,
    StaticTTLPolicy,
    alex_policy_factory,
    static_ttl_policy_factory,
)
from repro.core.errors import PolicyConfigurationError
from repro.core.types import ObjectId, ObjectSnapshot, TTRBounds


def outcome(poll_time, last_modified, *, modified=True):
    """A poll's fields, in ``next_ttr``'s argument order."""
    return (
        poll_time,
        modified,
        ObjectSnapshot(ObjectId("x"), version=1, last_modified=last_modified),
        None,
        None,
    )


class TestStaticTTL:
    @pytest.mark.parametrize("horizon, requests", [(59.0, 1), (61.0, 2), (121.0, 3)])
    def test_copy_expires_after_its_ttl(self, horizon, requests):
        # Black-box: only the origin's request count is read.  The
        # initial fetch at t = 0 serves until the 60 s TTL runs out,
        # then every expiry costs one more origin request.
        config = SimulationConfig(
            workload=WorkloadConfig(
                source="poisson",
                objects=("obj",),
                params={"rate_per_hour": 30.0, "hours": 1.0},
            ),
            policy=PolicyConfig(name="static_ttl", params={"ttl": 60.0}),
            topology=TopologyConfig(kind="single"),
            horizon_s=horizon,
        )
        outcome = run_simulation(config)
        assert outcome.run.server.counters.get("requests") == requests

    def test_constant_ttr(self):
        policy = StaticTTLPolicy(30.0)
        assert policy.first_ttr() == 30.0
        assert policy.next_ttr(*outcome(100.0, 95.0)) == 30.0
        assert policy.current_ttr == 30.0

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ValueError):
            StaticTTLPolicy(0.0)

    def test_factory(self):
        factory = static_ttl_policy_factory(10.0)
        assert factory(ObjectId("a")).ttl == 10.0


class TestAlex:
    BOUNDS = TTRBounds(ttr_min=5.0, ttr_max=500.0)

    def _policy(self, mu=0.2):
        return AlexTTLPolicy(
            bounds=self.BOUNDS, parameters=AlexParameters(update_threshold=mu)
        )

    def test_ttr_is_fraction_of_age(self):
        policy = self._policy(mu=0.2)
        # Object last modified 100 s ago → TTL = 20 s.
        assert policy.next_ttr(*outcome(200.0, 100.0)) == pytest.approx(20.0)

    def test_fresh_object_gets_min_ttr(self):
        policy = self._policy(mu=0.2)
        # Modified 1 s ago → raw 0.2 s, clamped to 5.
        assert policy.next_ttr(*outcome(100.0, 99.0)) == 5.0

    def test_ancient_object_gets_max_ttr(self):
        policy = self._policy(mu=0.2)
        assert policy.next_ttr(*outcome(1e6, 0.0)) == 500.0

    def test_age_grows_between_quiet_polls(self):
        policy = self._policy(mu=0.5)
        first = policy.next_ttr(*outcome(100.0, 60.0, modified=False))
        second = policy.next_ttr(*outcome(150.0, 60.0, modified=False))
        assert second > first  # same last_modified, more age

    def test_update_shrinks_ttr(self):
        policy = self._policy(mu=0.2)
        policy.next_ttr(*outcome(1000.0, 0.0, modified=False))
        long_ttr = policy.current_ttr
        fresh = policy.next_ttr(*outcome(1100.0, 1090.0))
        assert fresh < long_ttr

    def test_invalid_threshold_rejected(self):
        with pytest.raises(PolicyConfigurationError):
            AlexParameters(update_threshold=0.0)
        with pytest.raises(PolicyConfigurationError):
            AlexParameters(update_threshold=1.5)

    def test_factory_independent_instances(self):
        factory = alex_policy_factory(ttr_min=5.0, ttr_max=500.0)
        p1 = factory(ObjectId("a"))
        p2 = factory(ObjectId("b"))
        p1.next_ttr(*outcome(1000.0, 0.0))
        assert p1.current_ttr != p2.current_ttr


class TestRegistryIntegration:
    def test_build_from_registry(self):
        from repro.consistency.registry import build_policy_factory

        static = build_policy_factory("static_ttl", ttl=15.0)(ObjectId("x"))
        assert isinstance(static, StaticTTLPolicy)
        alex = build_policy_factory(
            "alex", ttr_min=1.0, ttr_max=100.0, update_threshold=0.1
        )(ObjectId("x"))
        assert isinstance(alex, AlexTTLPolicy)
        assert alex.parameters.update_threshold == 0.1


class TestAlexVsLimdEndToEnd:
    def test_limd_fidelity_per_poll_beats_alex_on_bursty_trace(self):
        """The paper's motivation for LIMD over age-based TTLs: on a
        diurnal/bursty trace, LIMD achieves at least Alex's fidelity
        per poll (violation feedback beats the pure age signal)."""
        from repro.consistency.limd import limd_policy_factory
        from repro.core.types import MINUTE
        from repro.api.runs import run_individual
        from repro.experiments.workloads import news_trace
        from repro.metrics.collector import collect_temporal

        trace = news_trace("cnn_fn")
        delta = 10 * MINUTE
        limd_run = run_individual(
            [trace], limd_policy_factory(delta, ttr_max=60 * MINUTE)
        )
        alex_run = run_individual(
            [trace],
            alex_policy_factory(ttr_min=delta, ttr_max=60 * MINUTE),
        )
        limd = collect_temporal(limd_run.proxy, trace, delta)
        alex = collect_temporal(alex_run.proxy, trace, delta)
        limd_efficiency = limd.fidelity_by_time / max(limd.polls, 1)
        alex_efficiency = alex.fidelity_by_time / max(alex.polls, 1)
        assert limd_efficiency >= alex_efficiency * 0.9
        # Both still provide meaningful guarantees.
        assert alex.fidelity_by_time > 0.5
        assert limd.fidelity_by_time > 0.8
