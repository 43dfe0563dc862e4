"""Unit tests for n-object group mutual-consistency metrics."""

from __future__ import annotations

import math

import pytest

from repro.core.types import ObjectId
from repro.metrics.group import group_interval_spread, group_temporal_fidelity
from repro.metrics.mutual import validity_interval
from repro.traces.model import trace_from_times

A, B, C = ObjectId("a"), ObjectId("b"), ObjectId("c")


def t_trace(oid, times, end=1000.0):
    return trace_from_times(oid, times, start_time=0.0, end_time=end)


# Eq. 4 generalised, at an instant: the cached versions' validity
# intervals fit within a window of width δ — the check
# group_temporal_fidelity makes after every poll.
def group_mutually_consistent_at(traces, origins, delta):
    intervals = [
        validity_interval(traces[object_id], origin)
        for object_id, origin in origins.items()
    ]
    return group_interval_spread(intervals) <= delta


class TestGroupIntervalSpread:
    def test_common_overlap_is_zero(self):
        intervals = [(0.0, 10.0), (5.0, 15.0), (8.0, 20.0)]
        assert group_interval_spread(intervals) == 0.0

    def test_spread_is_latest_start_minus_earliest_end(self):
        intervals = [(0.0, 10.0), (25.0, 30.0), (5.0, 40.0)]
        assert group_interval_spread(intervals) == 15.0

    def test_single_interval_is_zero(self):
        assert group_interval_spread([(3.0, 7.0)]) == 0.0

    def test_pairwise_reduces_to_interval_gap(self):
        # Two intervals: the spread is Eq. 4's gap between them,
        # whichever comes first.
        a, b = (0.0, 10.0), (25.0, 30.0)
        assert group_interval_spread([a, b]) == 15.0
        assert group_interval_spread([b, a]) == 15.0

    def test_open_ended_intervals(self):
        intervals = [(0.0, math.inf), (100.0, math.inf)]
        assert group_interval_spread(intervals) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            group_interval_spread([])


class TestGroupConsistentAt:
    def test_three_way_consistency(self):
        traces = {
            A: t_trace(A, [10.0, 50.0]),
            B: t_trace(B, [12.0, 60.0]),
            C: t_trace(C, [15.0, 55.0]),
        }
        # All cached versions from the first wave: validity intervals
        # [10,50), [12,60), [15,55) — common overlap.
        origins = {A: 10.0, B: 12.0, C: 15.0}
        assert group_mutually_consistent_at(traces, origins, 0.0)

    def test_one_straggler_breaks_group(self):
        traces = {
            A: t_trace(A, [10.0, 20.0]),
            B: t_trace(B, [12.0, 60.0]),
            C: t_trace(C, [50.0]),
        }
        # a's cached version [10,20) vs c's [50,inf): spread 30.
        origins = {A: 10.0, B: 12.0, C: 50.0}
        assert not group_mutually_consistent_at(traces, origins, 10.0)
        assert group_mutually_consistent_at(traces, origins, 30.0)


class TestGroupTemporalFidelity:
    def test_synchronized_group_is_clean(self):
        traces = {
            A: t_trace(A, [25.0], end=100.0),
            B: t_trace(B, [25.0], end=100.0),
            C: t_trace(C, [25.0], end=100.0),
        }
        fetches = {
            oid: [(0.0, 0.0), (30.0, 25.0)] for oid in (A, B, C)
        }
        report = group_temporal_fidelity(traces, fetches, delta=0.0)
        assert report.violations == 0
        assert report.out_sync_time == 0.0
        assert report.polls == 6

    def test_stale_member_counts_violations_and_time(self):
        traces = {
            A: t_trace(A, [25.0], end=100.0),
            B: t_trace(B, [20.0], end=100.0),
        }
        fetches = {
            A: [(0.0, 0.0), (30.0, 25.0)],
            B: [(0.0, 0.0)],  # never refreshed after b's update
        }
        report = group_temporal_fidelity(traces, fetches, delta=2.0)
        assert report.violations == 1
        assert report.out_sync_time == pytest.approx(70.0)

    def test_matches_pairwise_metric_for_two_objects(self):
        # A pair is a group of two.  By hand: at t=30 A holds [25, 70)
        # and B still holds [0, 20), a gap of exactly 5 s that lasts
        # until B's poll at t=50; every other segment overlaps.
        traces = {
            A: t_trace(A, [25.0, 70.0], end=100.0),
            B: t_trace(B, [20.0, 80.0], end=100.0),
        }
        fetches = {
            A: [(0.0, 0.0), (30.0, 25.0), (75.0, 70.0)],
            B: [(0.0, 0.0), (50.0, 20.0)],
        }
        at_bound = group_temporal_fidelity(traces, fetches, delta=5.0)
        assert (at_bound.polls, at_bound.violations) == (5, 0)
        assert at_bound.out_sync_time == 0.0
        inside = group_temporal_fidelity(traces, fetches, delta=4.9)
        assert (inside.polls, inside.violations) == (5, 1)
        assert inside.out_sync_time == pytest.approx(20.0)

    def test_mismatched_keys_rejected(self):
        traces = {A: t_trace(A, []), B: t_trace(B, [])}
        with pytest.raises(ValueError, match="same objects"):
            group_temporal_fidelity(traces, {A: []}, delta=1.0)

    def test_single_member_rejected(self):
        with pytest.raises(ValueError, match="two members"):
            group_temporal_fidelity(
                {A: t_trace(A, [])}, {A: []}, delta=1.0
            )

    def test_negative_delta_rejected(self):
        traces = {A: t_trace(A, []), B: t_trace(B, [])}
        with pytest.raises(ValueError):
            group_temporal_fidelity(traces, {A: [], B: []}, delta=-1.0)


class TestPartitionedGroupCoordinator:
    def test_three_member_group_maintains_pairwise_budget(self):
        from repro.consistency.mutual_value import (
            PartitionedMvCoordinator,
            PartitionParameters,
        )
        from repro.core.types import TTRBounds
        from repro.httpsim.network import Network
        from repro.proxy.proxy import ProxyCache
        from repro.server.origin import OriginServer
        from repro.server.updates import UpdateFeeder
        from repro.sim.kernel import Kernel
        from repro.traces.model import trace_from_ticks

        kernel = Kernel()
        server = OriginServer()
        proxy = ProxyCache(kernel, Network(kernel))
        members = (A, B, C)
        rates = {A: 0.5, B: 2.0, C: 8.0}
        for oid in members:
            ticks = [
                (5.0 + 10.0 * i, rates[oid] * i) for i in range(25)
            ]
            UpdateFeeder(
                kernel, server,
                trace_from_ticks(oid, ticks, end_time=300.0),
            )
        delta = 3.0
        coordinator = PartitionedMvCoordinator(
            proxy, members, delta,
            bounds=TTRBounds(ttr_min=1.0, ttr_max=50.0),
            parameters=PartitionParameters(reapportion_interval=30.0),
        )
        coordinator.setup({oid: server for oid in members})
        kernel.run(until=300.0)

        assert coordinator.counters.get("reapportionments") > 0
        tolerances = coordinator.current_tolerances()
        # Slower objects earn larger tolerances.
        assert tolerances[A] > tolerances[B] > tolerances[C]
        # Pairwise budget: the two largest tolerances sum to <= delta
        # (small slack for the min-fraction floor).
        assert coordinator.max_pair_tolerance_sum() <= delta * 1.05

    def test_duplicate_members_rejected(self):
        from repro.consistency.mutual_value import PartitionedMvCoordinator
        from repro.core.errors import PolicyConfigurationError
        from repro.core.types import TTRBounds
        from repro.httpsim.network import Network
        from repro.proxy.proxy import ProxyCache
        from repro.sim.kernel import Kernel

        kernel = Kernel()
        proxy = ProxyCache(kernel, Network(kernel))
        with pytest.raises(PolicyConfigurationError):
            PartitionedMvCoordinator(
                proxy, (A, A), 1.0, bounds=TTRBounds(ttr_min=1.0, ttr_max=10.0)
            )
