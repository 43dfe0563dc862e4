"""Tests for n-object mutual value consistency: budgets and f history."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.consistency.base import FixedTTRPolicy
from repro.consistency.mutual_value import (
    GroupBudget,
    PartitionedMvCoordinator,
    PartitionParameters,
    group_f_history,
    total_minus_parts,
)
from repro.core.types import ObjectId, ObjectSnapshot, TTRBounds
from repro.api.runs import run_individual, run_mutual_value_partitioned
from repro.httpsim.network import Network
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.server.updates import UpdateFeeder
from repro.sim.kernel import Kernel
from repro.traces.model import trace_from_ticks
from repro.traces.sports import SportsMatchSpec, generate_match

A, B, C = ObjectId("a"), ObjectId("b"), ObjectId("c")


def _linear_traces(rates, *, end=300.0, step=10.0):
    traces = []
    for oid, rate in rates.items():
        ticks = [(5.0 + step * i, rate * i) for i in range(int(end // step) - 1)]
        traces.append(trace_from_ticks(oid, ticks, end_time=end))
    return traces


def _run_group(budget, *, delta=3.0, rates=None):
    rates = rates or {A: 0.5, B: 2.0, C: 8.0}
    traces = _linear_traces(rates)
    return run_mutual_value_partitioned(
        traces,
        delta,
        bounds=TTRBounds(ttr_min=1.0, ttr_max=50.0),
        parameters=PartitionParameters(reapportion_interval=30.0),
        budget=budget,
        horizon=300.0,
    )


class TestGroupBudgets:
    def test_pairwise_budget_bounds_two_largest(self):
        result = _run_group(GroupBudget.PAIRWISE)
        group = result.coordinator
        assert group is not None
        assert group.counters.get("reapportionments") > 0
        assert group.max_pair_tolerance_sum() <= 3.0 * 1.05

    def test_sum_budget_bounds_full_sum(self):
        result = _run_group(GroupBudget.SUM)
        group = result.coordinator
        assert group is not None
        assert group.counters.get("reapportionments") > 0
        assert group.tolerance_sum() <= 3.0 * 1.05

    def test_sum_budget_is_stricter_in_aggregate(self):
        # With >2 members the pairwise budget only constrains the two
        # largest tolerances, so its full sum exceeds δ; the sum budget
        # pins the full sum at δ.  (Per-object comparison would be
        # noisy: the two runs poll differently and estimate different
        # rates.)
        pairwise = _run_group(GroupBudget.PAIRWISE).coordinator
        summed = _run_group(GroupBudget.SUM).coordinator
        assert pairwise is not None and summed is not None
        assert summed.tolerance_sum() <= pairwise.tolerance_sum() + 1e-9

    def test_sum_budget_initial_split_is_delta_over_n(self):
        kernel = Kernel()
        server = OriginServer()
        for trace in _linear_traces({A: 1.0, B: 1.0, C: 1.0}):
            UpdateFeeder(kernel, server, trace)
        proxy = ProxyCache(kernel, Network(kernel))
        coordinator = PartitionedMvCoordinator(
            proxy,
            (A, B, C),
            3.0,
            bounds=TTRBounds(ttr_min=1.0, ttr_max=50.0),
            budget=GroupBudget.SUM,
        )
        coordinator.setup({oid: server for oid in (A, B, C)})
        assert coordinator.current_tolerances() == {A: 1.0, B: 1.0, C: 1.0}

    def test_budget_property_exposed(self):
        result = _run_group(GroupBudget.SUM)
        assert result.coordinator.budget is GroupBudget.SUM

    def test_slower_objects_get_larger_tolerance_in_both_budgets(self):
        for budget in (GroupBudget.PAIRWISE, GroupBudget.SUM):
            group = _run_group(budget).coordinator
            tolerances = group.current_tolerances()
            assert tolerances[A] > tolerances[B] > tolerances[C]

    def test_group_run_requires_two_traces(self):
        traces = _linear_traces({A: 1.0})
        with pytest.raises(ValueError):
            run_mutual_value_partitioned(
                traces, 1.0, bounds=TTRBounds(ttr_min=1.0, ttr_max=50.0)
            )


class TestReapportionKeepsTheBudget:
    """δ is the guarantee: flooring a starved member must not break it."""

    @given(
        rates=st.lists(
            st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=6
        ),
        budget=st.sampled_from(list(GroupBudget)),
        min_fraction=st.floats(min_value=0.01, max_value=0.5),
    )
    # One fast and one slow member at the default floor: the fast one is
    # floored, and its floor used to come on top of a slow member that
    # already held the whole budget (1.025 > δ = 1).
    @example(rates=[0.001, 1.0], budget=GroupBudget.PAIRWISE, min_fraction=0.05)
    @example(rates=[0.001, 1.0, 1.0], budget=GroupBudget.SUM, min_fraction=0.05)
    @settings(max_examples=200, deadline=None)
    def test_budget_never_exceeds_delta(self, rates, budget, min_fraction):
        delta = 1.0
        members = tuple(ObjectId(f"m{i}") for i in range(len(rates)))
        kernel = Kernel()
        server = OriginServer()
        for member in members:
            server.create_object(member, created_at=0.0, initial_value=0.0)
        coordinator = PartitionedMvCoordinator(
            ProxyCache(kernel, Network(kernel)),
            members,
            delta,
            bounds=TTRBounds(ttr_min=1.0, ttr_max=50.0),
            parameters=PartitionParameters(
                reapportion_interval=None, min_fraction=min_fraction
            ),
            budget=budget,
        )
        coordinator.setup({member: server for member in members})
        # Two observed polls a second apart, from value 0 to the drawn
        # rate, give each member's estimator exactly that rate.
        for member, rate in zip(members, rates):
            for time, value in ((0.0, 0.0), (1.0, rate)):
                snapshot = ObjectSnapshot(
                    member, version=1, last_modified=time, value=value
                )
                coordinator.on_poll_complete(
                    member, time, True, snapshot, None, None
                )
        tolerances = coordinator.reapportion()
        assert coordinator.counters.get("reapportionments") == 1
        spent = (
            coordinator.max_pair_tolerance_sum()
            if budget is GroupBudget.PAIRWISE
            else coordinator.tolerance_sum()
        )
        assert spent <= delta * (1 + 1e-12)
        floor = min_fraction * delta / len(members)
        assert min(tolerances.values()) >= floor


class TestTotalMinusParts:
    def test_zero_for_consistent_values(self):
        assert total_minus_parts((2.0, 3.0, 5.0)) == 0.0

    def test_sign_of_skew(self):
        assert total_minus_parts((2.0, 3.0, 7.0)) == 2.0
        assert total_minus_parts((2.0, 3.0, 4.0)) == -1.0

    def test_pair_degenerates_to_difference(self):
        assert total_minus_parts((3.0, 10.0)) == 7.0


class TestGroupFHistory:
    def _stack_with_polled_values(self):
        """Three objects polled on fixed TTRs against linear servers."""
        traces = _linear_traces({A: 1.0, B: 2.0, C: 3.0})
        result = run_individual(
            traces, lambda _oid: FixedTTRPolicy(ttr=20.0), horizon=300.0
        )
        return result.proxy

    def test_knots_start_once_all_members_seen(self):
        proxy = self._stack_with_polled_values()
        knots = group_f_history(proxy, (A, B, C), total_minus_parts)
        assert knots, "expected at least one knot"
        # All three initial fetches happen at t=0, so f exists from t=0.
        assert knots[0][0] == pytest.approx(0.0)

    def test_knot_times_nondecreasing(self):
        proxy = self._stack_with_polled_values()
        knots = group_f_history(proxy, (A, B, C), total_minus_parts)
        times = [t for t, _f in knots]
        assert times == sorted(times)

    def test_missing_member_yields_no_knots(self):
        traces = _linear_traces({A: 1.0, B: 2.0})
        proxy = run_individual(
            traces, lambda _oid: FixedTTRPolicy(ttr=20.0), horizon=300.0
        ).proxy
        # C was never registered/polled: the combined view never forms.
        proxy.cache.get_or_create(C)
        knots = group_f_history(proxy, (A, B, C), total_minus_parts)
        assert knots == []


class TestSportsScoreboardIntegration:
    """End-to-end: the sum budget keeps a scoreboard nearly consistent."""

    def test_scoreboard_skew_stays_bounded_by_tolerance_sum(self):
        spec = SportsMatchSpec(scoring_events=120, duration=3600.0)
        match = generate_match(spec, random.Random(9))
        traces = [match.players[m] for m in match.players] + [match.total]
        members = tuple(t.object_id for t in traces)
        result = run_mutual_value_partitioned(
            traces,
            6.0,
            bounds=TTRBounds(ttr_min=5.0, ttr_max=60.0),
            budget=GroupBudget.SUM,
            horizon=spec.duration,
        )
        knots = group_f_history(result.proxy, members, total_minus_parts)
        assert knots
        # The cached scoreboard must be exactly consistent at least part
        # of the time, and on average the skew stays in the same order
        # of magnitude as the tolerance (polling is best-effort between
        # bursts, so the *max* can exceed δ transiently).
        skews = [abs(f) for _, f in knots]
        assert min(skews) == 0.0
        assert sum(skews) / len(skews) < 12.0

    def test_total_polls_faster_than_any_player(self):
        spec = SportsMatchSpec(scoring_events=120, duration=3600.0)
        match = generate_match(spec, random.Random(9))
        traces = [match.players[m] for m in match.players] + [match.total]
        result = run_mutual_value_partitioned(
            traces,
            6.0,
            bounds=TTRBounds(ttr_min=5.0, ttr_max=60.0),
            budget=GroupBudget.SUM,
            horizon=spec.duration,
        )
        total_polls = result.polls_of(match.total.object_id)
        for player in match.players:
            # The total changes on every event — it should be polled at
            # least as often as any single player.
            assert total_polls >= result.polls_of(player)
