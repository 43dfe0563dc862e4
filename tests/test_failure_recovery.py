"""Failure-injection tests: proxy crash-and-recover (paper §3.1).

The paper claims LIMD's minimal state makes proxy recovery trivial —
reset every TTR to TTR_min and resume.  These tests crash the proxy
mid-run and verify (i) the reset actually happens, (ii) polling resumes
and re-adapts, and (iii) consistency guarantees hold across the crash.
"""

from __future__ import annotations

import pytest

from repro.consistency.base import FixedTTRPolicy
from repro.consistency.limd import limd_policy_factory
from repro.consistency.adaptive_value import (
    AdaptiveValueParameters,
    AdaptiveValueTTRPolicy,
)
from repro.core.types import MINUTE, ObjectId, TTRBounds
from repro.experiments.workloads import news_trace
from repro.httpsim.network import Network
from repro.metrics.collector import collect_temporal
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.server.updates import UpdateFeeder
from repro.sim.kernel import Kernel
from repro.traces.model import trace_from_times

X = ObjectId("x")


class TestPolicyReset:
    def test_limd_reset_restores_ttr_min(self):
        from tests.test_consistency_limd import make_policy, outcome

        policy = make_policy(l=0.5, ttr_max=500.0)
        t = 0.0
        for _ in range(8):
            t += policy.current_ttr
            policy.next_ttr(*outcome(t, modified=False, last_modified=0.0))
        assert policy.current_ttr > 10.0
        policy.reset()
        assert policy.current_ttr == 10.0  # back to TTR_min
        assert policy.last_case == "reset"

    def test_adaptive_value_reset_clears_learning(self):
        from tests.test_consistency_adaptive_value import outcome

        bounds = TTRBounds(ttr_min=1.0, ttr_max=100.0)
        policy = AdaptiveValueTTRPolicy(
            1.0, bounds=bounds, parameters=AdaptiveValueParameters()
        )
        policy.next_ttr(*outcome(0.0, 0.0))
        policy.next_ttr(*outcome(10.0, 0.5))
        assert policy.observed_min_ttr is not None
        policy.reset()
        assert policy.observed_min_ttr is None
        assert policy.current_ttr == 1.0

    def test_fixed_policy_reset_is_noop(self):
        policy = FixedTTRPolicy(ttr=7.0)
        policy.reset()
        assert policy.current_ttr == 7.0


class TestProxyRecovery:
    def _stack(self, trace):
        kernel = Kernel()
        server = OriginServer()
        proxy = ProxyCache(kernel, Network(kernel))
        UpdateFeeder(kernel, server, trace)
        return kernel, server, proxy

    def test_recovery_resets_all_objects(self):
        trace = trace_from_times(X, [5.0], end_time=10000.0)
        kernel, server, proxy = self._stack(trace)
        factory = limd_policy_factory(10.0, ttr_max=600.0)
        proxy.register_object(X, server, factory(X))
        kernel.run(until=5000.0)  # long quiet stretch: TTR grows
        policy = proxy.refresher_for(X).policy
        assert policy.current_ttr > 10.0
        recovered = proxy.recover_from_failure()
        assert recovered == 1
        assert policy.current_ttr == 10.0
        assert proxy.counters.get("recoveries") == 1

    def test_polling_resumes_after_recovery(self):
        trace = trace_from_times(X, [5.0], end_time=1000.0)
        kernel, server, proxy = self._stack(trace)
        proxy.register_object(X, server, FixedTTRPolicy(ttr=50.0))
        kernel.run(until=100.0)
        polls_before = proxy.entry_for(X).poll_count
        kernel.schedule_at(100.0, lambda k: proxy.recover_from_failure())
        kernel.run(until=400.0)
        assert proxy.entry_for(X).poll_count > polls_before

    def test_recovery_reschedules_promptly(self):
        """After recovery the next poll happens at TTR_min, not at the
        stale long TTR — a cold object that went hot during the outage
        is re-examined quickly."""
        trace = trace_from_times(X, [5.0], end_time=10000.0)
        kernel, server, proxy = self._stack(trace)
        factory = limd_policy_factory(10.0, ttr_max=3600.0)
        proxy.register_object(X, server, factory(X))
        kernel.run(until=5000.0)
        refresher = proxy.refresher_for(X)
        proxy.recover_from_failure()
        next_poll = refresher.next_poll_time
        assert next_poll is not None
        assert next_poll - kernel.now() == pytest.approx(10.0)

    def test_cache_survives_recovery(self):
        trace = trace_from_times(X, [5.0], end_time=1000.0)
        kernel, server, proxy = self._stack(trace)
        proxy.register_object(X, server, FixedTTRPolicy(ttr=10.0))
        kernel.run(until=50.0)
        version_before = proxy.entry_for(X).snapshot.version
        proxy.recover_from_failure()
        assert proxy.entry_for(X).snapshot.version == version_before

    def test_consistency_maintained_across_crash(self):
        """End-to-end: crash mid-run on a real workload; guarantees
        still hold over the full horizon within normal LIMD fidelity."""
        trace = news_trace("cnn_fn")
        delta = 10 * MINUTE
        kernel, server, proxy = self._stack(trace)
        factory = limd_policy_factory(delta, ttr_max=60 * MINUTE)
        proxy.register_object(trace.object_id, server, factory(trace.object_id))
        crash_at = trace.duration / 2
        kernel.schedule_at(crash_at, lambda k: proxy.recover_from_failure())
        kernel.run(until=trace.end_time)
        report = collect_temporal(proxy, trace, delta)
        assert report.fidelity_by_time >= 0.85

    def test_recovery_with_passive_policies_is_safe(self):
        from repro.consistency.base import PassivePolicy

        kernel = Kernel()
        server = OriginServer()
        proxy = ProxyCache(kernel, Network(kernel))
        server.create_object(X, created_at=0.0)
        proxy.register_object(X, server, PassivePolicy())
        assert proxy.recover_from_failure() == 1
        kernel.run(until=100.0)
        # Passive objects stay passive after recovery (infinite TTR).
        assert proxy.entry_for(X).poll_count == 1
