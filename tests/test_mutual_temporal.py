"""Unit tests for the mutual temporal consistency coordinator (§3.2)."""

from __future__ import annotations

import pytest

from repro.consistency import mutual_temporal
from repro.consistency.base import FixedTTRPolicy
from repro.consistency.mutual_temporal import (
    MutualTemporalCoordinator,
    MutualTemporalMode,
    make_mutual_temporal_coordinator,
)
from repro.core.types import ObjectId
from repro.groups.registry import GroupRegistry
from repro.httpsim.network import Network
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.server.updates import UpdateFeeder
from repro.sim.kernel import Kernel
from repro.traces.model import trace_from_times

A = ObjectId("a")
B = ObjectId("b")


def build_pair(
    *,
    mode=MutualTemporalMode.TRIGGERED,
    mutual_delta=5.0,
    updates_a=(),
    updates_b=(),
    ttr_a=10.0,
    ttr_b=10.0,
    horizon=200.0,
    rate_ratio_threshold=0.8,
):
    kernel = Kernel()
    server = OriginServer()
    proxy = ProxyCache(kernel, Network(kernel))
    if updates_a:
        UpdateFeeder(kernel, server, trace_from_times(A, updates_a, end_time=horizon))
    else:
        server.create_object(A, created_at=0.0)
    if updates_b:
        UpdateFeeder(kernel, server, trace_from_times(B, updates_b, end_time=horizon))
    else:
        server.create_object(B, created_at=0.0)
    groups = GroupRegistry()
    groups.create_group("pair", (A, B), mutual_delta)
    coordinator = MutualTemporalCoordinator(
        proxy, groups, mode=mode, rate_ratio_threshold=rate_ratio_threshold
    )
    proxy.register_object(A, server, FixedTTRPolicy(ttr=ttr_a))
    proxy.register_object(B, server, FixedTTRPolicy(ttr=ttr_b))
    return kernel, proxy, coordinator


class TestTriggeredMode:
    def test_update_triggers_partner_poll(self):
        # a updates at t=15; a polls every 10s, b every 100s (so b's
        # next/prev polls are far from a's detection at t=20).
        kernel, proxy, coordinator = build_pair(
            updates_a=(15.0,), ttr_a=10.0, ttr_b=100.0
        )
        kernel.run(until=30.0)
        b_polls = list(proxy.entry_for(B).fetch_times)
        assert 20.0 in b_polls  # triggered at a's detection instant
        assert coordinator.extra_polls == 1

    def test_no_trigger_without_update(self):
        kernel, proxy, coordinator = build_pair()
        kernel.run(until=100.0)
        assert coordinator.extra_polls == 0

    def test_recent_partner_poll_suppresses(self):
        # b polls every 10s too: when a detects its update at t=20, b
        # was also polled at t=20 (same instant, distance 0 <= delta).
        kernel, proxy, coordinator = build_pair(
            updates_a=(15.0,), ttr_a=10.0, ttr_b=10.0, mutual_delta=5.0
        )
        kernel.run(until=30.0)
        assert coordinator.extra_polls == 0
        reasons = [d.reason for d in coordinator.decisions]
        assert "recent_poll" in reasons

    def test_upcoming_partner_poll_suppresses(self):
        # b polls every 23s → at a's detection t=20, b's next poll is 23
        # (3s away, within delta=5) → suppressed.
        kernel, proxy, coordinator = build_pair(
            updates_a=(15.0,), ttr_a=10.0, ttr_b=23.0, mutual_delta=5.0
        )
        kernel.run(until=22.0)
        decisions = [d for d in coordinator.decisions if d.time == 20.0]
        assert len(decisions) == 1
        assert decisions[0].reason == "upcoming_poll"
        assert coordinator.extra_polls == 0

    def test_additional_polls_do_not_shift_schedule(self):
        kernel, proxy, coordinator = build_pair(
            updates_a=(15.0,), ttr_a=10.0, ttr_b=100.0
        )
        kernel.run(until=110.0)
        b_polls = list(proxy.entry_for(B).fetch_times)
        # Initial at 0, trigger at 20, scheduled at 100 — untouched.
        assert b_polls == [0.0, 20.0, 100.0]

    def test_mutual_trigger_reason_recorded(self):
        kernel, proxy, coordinator = build_pair(
            updates_a=(15.0,), ttr_a=10.0, ttr_b=100.0
        )
        kernel.run(until=30.0)
        assert proxy.counters.get("polls_mutual_trigger") == 1

    def test_no_trigger_cascade(self):
        """Both objects update; the triggered poll of b detects b's
        update but must not re-trigger a at the same instant."""
        kernel, proxy, coordinator = build_pair(
            updates_a=(15.0,), updates_b=(16.0,), ttr_a=10.0, ttr_b=100.0
        )
        kernel.run(until=30.0)
        a_polls = list(proxy.entry_for(A).fetch_times)
        # a polls: 0, 10, 20 — no extra triggered poll of a at 20.
        assert a_polls.count(20.0) == 1

    def test_group_removed_mid_run_stops_triggering(self):
        """a's update detected at 20 triggers b; the group is removed at
        30, so the one detected at 60 leaves b on its own schedule."""
        kernel = Kernel()
        server = OriginServer()
        proxy = ProxyCache(kernel, Network(kernel))
        UpdateFeeder(
            kernel, server, trace_from_times(A, [15.0, 55.0], end_time=200.0)
        )
        server.create_object(B, created_at=0.0)
        groups = GroupRegistry()
        pair = groups.create_group("pair", (A, B), 5.0)
        coordinator = MutualTemporalCoordinator(proxy, groups)
        proxy.register_object(A, server, FixedTTRPolicy(ttr=10.0))
        proxy.register_object(B, server, FixedTTRPolicy(ttr=100.0))
        kernel.schedule_at(30.0, lambda _kernel: groups.remove_group(pair.group_id))
        kernel.run(until=90.0)
        assert list(proxy.entry_for(B).fetch_times) == [0.0, 20.0]
        assert coordinator.extra_polls == 1


class TestNoneMode:
    def test_never_triggers(self):
        kernel, proxy, coordinator = build_pair(
            mode=MutualTemporalMode.NONE,
            updates_a=(15.0,), ttr_a=10.0, ttr_b=100.0,
        )
        kernel.run(until=60.0)
        assert coordinator.extra_polls == 0
        assert coordinator.decisions == []


class TestHeuristicMode:
    def test_slower_partner_not_polled(self):
        # a updates often (fast), b rarely (slow): an update to a must
        # NOT trigger polls of the slower b.
        kernel, proxy, coordinator = build_pair(
            mode=MutualTemporalMode.HEURISTIC,
            updates_a=tuple(float(t) for t in range(5, 200, 7)),
            updates_b=(50.0,),
            ttr_a=5.0,
            ttr_b=60.0,
            horizon=400.0,
        )
        kernel.run(until=300.0)
        slower = [d for d in coordinator.decisions if d.reason == "slower_rate"]
        assert slower, "expected at least one slower-rate suppression"
        assert all(d.target == B for d in slower)

    def test_faster_partner_polled(self):
        # b updates fast; when slow a updates (detected at a's poll at
        # t=120, away from b's polls at 90/135), fast b IS polled.
        kernel, proxy, coordinator = build_pair(
            mode=MutualTemporalMode.HEURISTIC,
            updates_a=(100.0,),
            updates_b=tuple(float(t) for t in range(5, 200, 7)),
            ttr_a=30.0,
            ttr_b=45.0,
            horizon=400.0,
        )
        kernel.run(until=300.0)
        triggered_to_b = [
            d for d in coordinator.decisions if d.triggered and d.target == B
        ]
        assert triggered_to_b

    def test_unknown_rates_qualify(self):
        """Before any rate data exists, the heuristic must not suppress."""
        kernel, proxy, coordinator = build_pair(
            mode=MutualTemporalMode.HEURISTIC,
            updates_a=(15.0,),
            ttr_a=10.0,
            ttr_b=100.0,
        )
        kernel.run(until=30.0)
        assert coordinator.extra_polls == 1

    def test_rate_estimates_exposed(self):
        # a updates every 10 s throughout the run, so the estimate is
        # queried while the object is still active (no silence decay).
        kernel, proxy, coordinator = build_pair(
            mode=MutualTemporalMode.HEURISTIC,
            updates_a=tuple(float(t) for t in range(5, 300, 10)),
            ttr_a=5.0,
            ttr_b=50.0,
            horizon=400.0,
        )
        kernel.run(until=150.0)
        rate = coordinator.rate_of(A)
        assert rate is not None
        assert rate == pytest.approx(0.1, rel=0.5)

    def test_one_rate_estimator_per_object(self, monkeypatch):
        """An estimator is built on an object's first poll, not per poll."""
        built = []

        class Counting(mutual_temporal.UpdateRateEstimator):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(mutual_temporal, "UpdateRateEstimator", Counting)
        kernel, proxy, coordinator = build_pair(
            mode=MutualTemporalMode.HEURISTIC,
            updates_a=tuple(float(t) for t in range(5, 200, 10)),
        )
        kernel.run(until=200.0)
        assert proxy.counters.get("polls") > 20
        assert len(built) == 2
        assert coordinator.rate_of(A) is not None


class TestConstruction:
    def test_make_from_string(self):
        kernel = Kernel()
        proxy = ProxyCache(kernel, Network(kernel))
        groups = GroupRegistry()
        coordinator = make_mutual_temporal_coordinator(proxy, groups, "heuristic")
        assert coordinator.mode is MutualTemporalMode.HEURISTIC

    def test_invalid_threshold_rejected(self):
        kernel = Kernel()
        proxy = ProxyCache(kernel, Network(kernel))
        with pytest.raises(ValueError):
            MutualTemporalCoordinator(
                proxy, GroupRegistry(), rate_ratio_threshold=0.0
            )

    def test_three_member_group_triggers_all_partners(self):
        kernel = Kernel()
        server = OriginServer()
        proxy = ProxyCache(kernel, Network(kernel))
        c_id = ObjectId("c")
        UpdateFeeder(
            kernel, server, trace_from_times(A, [15.0], end_time=100.0)
        )
        server.create_object(B, created_at=0.0)
        server.create_object(c_id, created_at=0.0)
        groups = GroupRegistry()
        groups.create_group("trio", (A, B, c_id), 2.0)
        coordinator = MutualTemporalCoordinator(proxy, groups)
        proxy.register_object(A, server, FixedTTRPolicy(ttr=10.0))
        proxy.register_object(B, server, FixedTTRPolicy(ttr=100.0))
        proxy.register_object(c_id, server, FixedTTRPolicy(ttr=100.0))
        kernel.run(until=30.0)
        assert coordinator.extra_polls == 2
