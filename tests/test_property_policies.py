"""Property-based tests for consistency-policy invariants.

Complements ``test_property_based.py`` (kernel/trace/fidelity
properties) with invariants of the value-domain policies and the
partitioned-δ apportioning — including the paper's footnote 3, the
algebraic lemma the partitioned approach rests on.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.consistency.adaptive_value import AdaptiveValueTTRPolicy
from repro.consistency.mutual_value import (
    GroupBudget,
    PartitionedMvCoordinator,
    PartitionParameters,
    total_minus_parts,
)
from repro.core.types import ObjectId, ObjectSnapshot, TTRBounds
from repro.httpsim.network import Network
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.sim.kernel import Kernel

A, B, C = ObjectId("a"), ObjectId("b"), ObjectId("c")

rates_strategy = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def _outcome(object_id, time, value, version=1):
    """A modified poll's fields, in ``next_ttr``'s argument order."""
    return (
        time,
        True,
        ObjectSnapshot(
            object_id=object_id,
            version=version,
            last_modified=time,
            value=value,
        ),
        None,
        None,
    )


class TestAdaptiveValuePolicyProperties:
    @given(
        ticks=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=100.0),  # gap
                st.floats(min_value=-50.0, max_value=50.0),  # value step
            ),
            min_size=1,
            max_size=40,
        ),
        delta=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_ttr_always_within_bounds(self, ticks, delta):
        bounds = TTRBounds(ttr_min=1.0, ttr_max=600.0)
        policy = AdaptiveValueTTRPolicy(delta, bounds=bounds)
        time, value = 0.0, 100.0
        for version, (gap, step) in enumerate(ticks, start=1):
            time += gap
            value += step
            ttr = policy.next_ttr(*_outcome(A, time, value, version))
            assert bounds.ttr_min <= ttr <= bounds.ttr_max

    @given(
        delta=st.floats(min_value=0.01, max_value=10.0),
        new_delta=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_retarget_changes_delta_only(self, delta, new_delta):
        bounds = TTRBounds(ttr_min=1.0, ttr_max=600.0)
        policy = AdaptiveValueTTRPolicy(delta, bounds=bounds)
        ttr_before = policy.current_ttr
        policy.retarget_delta(new_delta)
        assert policy.delta == new_delta
        assert policy.current_ttr == ttr_before

    @given(st.floats(max_value=0.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_retarget_rejects_nonpositive(self, bad):
        policy = AdaptiveValueTTRPolicy(
            1.0, bounds=TTRBounds(ttr_min=1.0, ttr_max=10.0)
        )
        try:
            policy.retarget_delta(bad)
        except ValueError:
            return
        raise AssertionError(f"retarget_delta accepted {bad}")


def _pair_coordinator(delta, min_fraction):
    kernel = Kernel()
    server = OriginServer()
    for oid in (A, B):
        server.create_object(oid, created_at=0.0, initial_value=10.0)
    proxy = ProxyCache(kernel, Network(kernel))
    coordinator = PartitionedMvCoordinator(
        proxy,
        (A, B),
        delta,
        bounds=TTRBounds(ttr_min=1.0, ttr_max=100.0),
        parameters=PartitionParameters(
            reapportion_interval=None, min_fraction=min_fraction
        ),
    )
    coordinator.setup({A: server, B: server})
    return coordinator


def _feed_rate(coordinator, object_id, rate):
    """Drive an estimator to a known rate via the public observer hook."""
    coordinator.on_poll_complete(object_id, *_outcome(object_id, 100.0, 0.0))
    coordinator.on_poll_complete(
        object_id, *_outcome(object_id, 101.0, rate, version=2)
    )


class TestPartitionedPairInvariants:
    @given(
        rate_a=rates_strategy,
        rate_b=rates_strategy,
        min_fraction=st.floats(min_value=0.01, max_value=0.5),
    )
    # A fast and a slow member at the default floor: the clamp binds,
    # so the split is 0.95 / 0.05 (a floor of f·δ/n would give 0.975).
    @example(rate_a=0.001, rate_b=1.0, min_fraction=0.05)
    # Inverse-rate weights rescaled to δ round one bit away from
    # δ·rb/(ra+rb) here.
    @example(rate_a=2.0, rate_b=3.0, min_fraction=0.05)
    @settings(max_examples=100, deadline=None)
    def test_two_member_split_is_the_paper_pair_formula(
        self, rate_a, rate_b, min_fraction
    ):
        # Section 4.2: δa = δ·rb/(ra+rb), clamped to [f·δ, (1−f)·δ],
        # and δb = δ − δa — bit for bit.
        delta = 1.0
        coordinator = _pair_coordinator(delta, min_fraction)
        _feed_rate(coordinator, A, rate_a)
        _feed_rate(coordinator, B, rate_b)
        share = min(1.0 - min_fraction, max(min_fraction, rate_b / (rate_a + rate_b)))
        delta_a = delta * share
        assert coordinator.reapportion() == {A: delta_a, B: delta - delta_a}


def _group_coordinator(delta, budget):
    kernel = Kernel()
    server = OriginServer()
    for oid in (A, B, C):
        server.create_object(oid, created_at=0.0, initial_value=10.0)
    proxy = ProxyCache(kernel, Network(kernel))
    coordinator = PartitionedMvCoordinator(
        proxy,
        (A, B, C),
        delta,
        bounds=TTRBounds(ttr_min=1.0, ttr_max=100.0),
        parameters=PartitionParameters(reapportion_interval=None),
        budget=budget,
    )
    coordinator.setup({oid: server for oid in (A, B, C)})
    return coordinator


class TestPartitionedGroupInvariants:
    @given(
        rates=st.tuples(rates_strategy, rates_strategy, rates_strategy)
    )
    @settings(max_examples=60, deadline=None)
    def test_pairwise_budget_never_exceeded(self, rates):
        delta = 6.0
        coordinator = _group_coordinator(delta, GroupBudget.PAIRWISE)
        for oid, rate in zip((A, B, C), rates):
            _feed_rate(coordinator, oid, rate)
        coordinator.reapportion()
        # The floor can push the two largest slightly above δ; bound the
        # slack by the floor itself.
        floor = 0.05 * delta / 3.0
        assert coordinator.max_pair_tolerance_sum() <= delta + 2 * floor

    @given(
        rates=st.tuples(rates_strategy, rates_strategy, rates_strategy)
    )
    @settings(max_examples=60, deadline=None)
    def test_sum_budget_never_exceeded(self, rates):
        delta = 6.0
        coordinator = _group_coordinator(delta, GroupBudget.SUM)
        for oid, rate in zip((A, B, C), rates):
            _feed_rate(coordinator, oid, rate)
        coordinator.reapportion()
        floor = 0.05 * delta / 3.0
        assert coordinator.tolerance_sum() <= delta + 3 * floor

    @given(
        rates=st.tuples(rates_strategy, rates_strategy, rates_strategy)
    )
    @settings(max_examples=60, deadline=None)
    def test_sum_budget_implies_pairwise_budget(self, rates):
        delta = 6.0
        coordinator = _group_coordinator(delta, GroupBudget.SUM)
        for oid, rate in zip((A, B, C), rates):
            _feed_rate(coordinator, oid, rate)
        coordinator.reapportion()
        floor = 0.05 * delta / 3.0
        assert coordinator.max_pair_tolerance_sum() <= delta + 2 * floor

    @given(
        rates=st.tuples(rates_strategy, rates_strategy, rates_strategy)
    )
    @settings(max_examples=60, deadline=None)
    def test_every_tolerance_strictly_positive(self, rates):
        coordinator = _group_coordinator(6.0, GroupBudget.SUM)
        for oid, rate in zip((A, B, C), rates):
            _feed_rate(coordinator, oid, rate)
        coordinator.reapportion()
        for tolerance in coordinator.current_tolerances().values():
            assert tolerance > 0


values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestFootnoteThreeLemma:
    """|x + y| <= |x| + |y| — the algebra behind the partitioned approach."""

    @given(
        server_a=values, server_b=values,
        drift_a=st.floats(min_value=-0.99, max_value=0.99),
        drift_b=st.floats(min_value=-0.99, max_value=0.99),
        delta_a=st.floats(min_value=0.01, max_value=100.0),
        delta_b=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_individual_bounds_imply_mutual_bound(
        self, server_a, server_b, drift_a, drift_b, delta_a, delta_b
    ):
        # Construct proxy copies within their individual tolerances.
        proxy_a = server_a + drift_a * delta_a
        proxy_b = server_b + drift_b * delta_b
        assert abs(server_a - proxy_a) < delta_a
        assert abs(server_b - proxy_b) < delta_b
        f_server = server_a - server_b
        f_proxy = proxy_a - proxy_b
        # Eq. 5 with δ = δa + δb, plus float-rounding headroom.
        assert abs(f_server - f_proxy) < (delta_a + delta_b) * (1 + 1e-9) + 1e-9

    @given(
        parts=st.lists(values, min_size=1, max_size=6),
        drifts=st.lists(
            st.floats(min_value=-1.0, max_value=1.0), min_size=7, max_size=7
        ),
        tolerance=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_total_minus_parts_is_one_lipschitz(self, parts, drifts, tolerance):
        total = sum(parts)
        exact = tuple(parts) + (total,)
        drifted = tuple(
            v + drifts[i] * tolerance for i, v in enumerate(exact)
        )
        skew = abs(total_minus_parts(drifted) - total_minus_parts(exact))
        budget = tolerance * len(exact)
        assert skew <= budget * (1 + 1e-9) + 1e-6
