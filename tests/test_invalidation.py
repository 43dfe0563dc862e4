"""Unit tests for the server-push strong-consistency extension."""

from __future__ import annotations

import pytest

from repro.consistency.base import fixed_policy_factory
from repro.consistency.invalidation import (
    PushChannel,
    PushConsistencyClient,
    PushUpdateFeeder,
    attach_push_channel,
)
from repro.core.types import ObjectId
from repro.httpsim.network import Network
from repro.metrics.collector import collect_temporal
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.sim.kernel import Kernel
from repro.traces.model import trace_from_times

X = ObjectId("x")


def build_push_stack(*, notify_latency=0.0):
    kernel = Kernel()
    server = OriginServer()
    proxy = ProxyCache(kernel, Network(kernel))
    channel = PushChannel(kernel, server, notify_latency=notify_latency)
    client = PushConsistencyClient(proxy, channel)
    return kernel, server, proxy, channel, client


class TestPushChannel:
    def test_subscribers_notified_on_update(self):
        kernel, server, proxy, channel, _ = build_push_stack()
        server.create_object(X, created_at=0.0)
        seen = []
        channel.subscribe(X, lambda oid, t: seen.append((oid, t)))
        channel.apply_update(X, 5.0)
        assert seen == [(X, 5.0)]
        assert channel.counters.get("notifications") == 1

    def test_unsubscribe_stops_notifications(self):
        kernel, server, proxy, channel, _ = build_push_stack()
        server.create_object(X, created_at=0.0)
        seen = []
        callback = lambda oid, t: seen.append(t)  # noqa: E731
        channel.subscribe(X, callback)
        channel.unsubscribe(X, callback)
        channel.apply_update(X, 5.0)
        assert seen == []

    def test_notification_latency_delays_delivery(self):
        kernel, server, proxy, channel, _ = build_push_stack(notify_latency=2.0)
        server.create_object(X, created_at=0.0)
        seen = []
        channel.subscribe(X, lambda oid, t: seen.append(kernel.now()))
        kernel.schedule_at(5.0, lambda k: channel.apply_update(X, 5.0))
        kernel.run()
        assert seen == [7.0]

    def test_negative_latency_rejected(self):
        kernel = Kernel()
        with pytest.raises(ValueError):
            PushChannel(kernel, OriginServer(), notify_latency=-1.0)

    def test_subscriber_count(self):
        kernel, server, proxy, channel, _ = build_push_stack()
        assert channel.subscriber_count(X) == 0
        channel.subscribe(X, lambda oid, t: None)
        assert channel.subscriber_count(X) == 1


class TestPushClient:
    def test_strong_consistency_with_zero_latency(self):
        kernel, server, proxy, channel, client = build_push_stack()
        trace = trace_from_times(X, [10.0, 30.0, 50.0], end_time=100.0)
        PushUpdateFeeder(kernel, channel, trace)
        client.register_object(X)
        kernel.run(until=100.0)
        # Every update reached the cache at its commit instant: the
        # temporal out-of-sync time is zero for ANY delta.
        report = collect_temporal(proxy, trace, delta=0.001).report
        assert report.out_sync_time == 0.0
        assert report.violations == 0
        # Exactly one fetch per update plus the initial fetch.
        assert proxy.entry_for(X).poll_count == 4

    def test_push_cost_scales_with_updates_not_time(self):
        kernel, server, proxy, channel, client = build_push_stack()
        trace = trace_from_times(X, [10.0], end_time=100000.0)
        PushUpdateFeeder(kernel, channel, trace)
        client.register_object(X)
        kernel.run(until=100000.0)
        # One update → two polls total, regardless of the horizon.
        assert proxy.entry_for(X).poll_count == 2

    def test_duplicate_registration_rejected(self):
        kernel, server, proxy, channel, client = build_push_stack()
        server.create_object(X, created_at=0.0)
        client.register_object(X)
        with pytest.raises(ValueError):
            client.register_object(X)

    def test_deregister_stops_push_fetches(self):
        kernel, server, proxy, channel, client = build_push_stack()
        trace = trace_from_times(X, [10.0, 50.0], end_time=100.0)
        PushUpdateFeeder(kernel, channel, trace)
        client.register_object(X)
        kernel.run(until=20.0)
        client.deregister_object(X)
        kernel.run(until=100.0)
        assert client.counters.get("pushes_received") == 1

    def test_cache_version_tracks_server(self):
        kernel, server, proxy, channel, client = build_push_stack()
        trace = trace_from_times(X, [10.0, 30.0], end_time=50.0)
        PushUpdateFeeder(kernel, channel, trace)
        client.register_object(X)
        kernel.run(until=20.0)
        assert proxy.entry_for(X).snapshot.version == 1
        kernel.run(until=50.0)
        assert proxy.entry_for(X).snapshot.version == 2

    def test_push_with_latency_bounded_staleness(self):
        kernel, server, proxy, channel, client = build_push_stack(
            notify_latency=1.5
        )
        trace = trace_from_times(X, [10.0, 30.0], end_time=60.0)
        PushUpdateFeeder(kernel, channel, trace)
        client.register_object(X)
        kernel.run(until=60.0)
        # Staleness is exactly the notification latency per update.
        report = collect_temporal(proxy, trace, delta=2.0).report
        assert report.out_sync_time == 0.0
        report_tight = collect_temporal(proxy, trace, delta=1.0).report
        assert report_tight.out_sync_time == pytest.approx(2 * 0.5)


class TestPushUpdateFeeder:
    """The trace feeder with the channel as its sink (black-box)."""

    @pytest.mark.parametrize("attached", [False, True])
    def test_notifies_exactly_once_per_update(self, attached):
        kernel, server, proxy, channel, _ = build_push_stack()
        if attached:
            attach_push_channel(channel)
        times = [10.0, 30.0, 50.0, 70.0]
        feeder = PushUpdateFeeder(
            kernel, channel, trace_from_times(X, times, end_time=100.0)
        )
        seen = []
        channel.subscribe(X, lambda oid, t: seen.append((kernel.now(), t)))
        # One pending event for the whole trace, as for the plain feeder.
        assert kernel.pending_count == 1
        assert feeder.scheduled_count == 4
        kernel.run(until=100.0)
        assert seen == [(t, t) for t in times]
        assert channel.counters.get("notifications") == 4
        assert server.counters.get("updates_applied") == 4
        assert feeder.applied_count == 4
        assert kernel.events_processed == 4

    def test_existing_object_is_not_recreated(self):
        kernel, server, proxy, channel, _ = build_push_stack()
        server.create_object(X, created_at=0.0, initial_value=9.0)
        PushUpdateFeeder(kernel, channel, trace_from_times(X, [5.0]))
        assert server.get_object(X).current_value == 9.0
        kernel.run()
        assert server.get_object(X).current_version == 1


def test_push_callback_alias_still_importable():
    # The signature's canonical home moved to repro.topology.protocols;
    # the historical import path keeps working.
    from repro.consistency.invalidation import PushCallback
    from repro.topology.protocols import PushCallback as canonical

    assert PushCallback is canonical


class TestAttachPushChannel:
    """The channel as the server's update tap (topology-layer wiring)."""

    def test_attached_channel_sees_direct_server_updates(self):
        kernel, server, proxy, channel, _ = build_push_stack()
        server.create_object(X, created_at=0.0)
        attach_push_channel(channel)
        assert channel.attached
        seen = []
        channel.subscribe(X, lambda oid, t: seen.append(t))
        # Updates applied at the server directly — the path the trace
        # feeders use — now reach subscribers too.
        server.apply_update(X, 4.0)
        assert seen == [4.0]

    def test_apply_update_never_double_notifies_when_attached(self):
        kernel, server, proxy, channel, _ = build_push_stack()
        server.create_object(X, created_at=0.0)
        attach_push_channel(channel)
        attach_push_channel(channel)  # idempotent
        seen = []
        channel.subscribe(X, lambda oid, t: seen.append(t))
        channel.apply_update(X, 7.0)
        assert seen == [7.0]
        assert channel.counters.get("notifications") == 1


class TestMessageCostCrossover:
    """Pin the module's cost-model claim, not just the bench's shape.

    Push sends one notification + one fetch per *update*; polling
    sends one conditional GET per *poll interval*.  Message cost must
    therefore scale with the update rate under push and with the poll
    rate (horizon / Δ) under pull, independent of the other knob.
    """

    HORIZON = 10_000.0

    def _push_messages(self, update_times):
        kernel, server, proxy, channel, client = build_push_stack()
        trace = trace_from_times(X, update_times, end_time=self.HORIZON)
        PushUpdateFeeder(kernel, channel, trace)
        client.register_object(X)
        kernel.run(until=self.HORIZON)
        return (
            channel.counters.get("notifications")
            + proxy.entry_for(X).poll_count
        )

    def _pull_messages(self, update_times, delta):
        kernel = Kernel()
        server = OriginServer()
        proxy = ProxyCache(kernel, Network(kernel))
        trace = trace_from_times(X, update_times, end_time=self.HORIZON)
        from repro.server.updates import feed_traces

        feed_traces(kernel, server, [trace])
        proxy.register_object(
            X, server, fixed_policy_factory(delta)(X)
        )
        kernel.run(until=self.HORIZON)
        return proxy.entry_for(X).poll_count

    def test_push_cost_scales_with_update_rate(self):
        sparse = [float(t) for t in range(1000, 2000, 100)]  # 10 updates
        dense = [float(t) for t in range(1000, 2000, 10)]  # 100 updates
        sparse_messages = self._push_messages(sparse)
        dense_messages = self._push_messages(dense)
        # 2 messages (notification + fetch) per update, +1 initial fetch.
        assert sparse_messages == 2 * len(sparse) + 1
        assert dense_messages == 2 * len(dense) + 1

    def test_pull_cost_scales_with_poll_rate_not_updates(self):
        sparse = [float(t) for t in range(1000, 2000, 100)]
        dense = [float(t) for t in range(1000, 2000, 10)]
        delta = 100.0
        # Ten times the updates, identical message cost.
        assert self._pull_messages(sparse, delta) == self._pull_messages(
            dense, delta
        )
        # Ten times the poll rate, ~ten times the message cost.
        tight = self._pull_messages(sparse, delta / 10)
        loose = self._pull_messages(sparse, delta)
        assert tight == pytest.approx(10 * loose, rel=0.02)

    def test_crossover_sits_at_update_interval_vs_delta(self):
        updates = [float(t) for t in range(500, 9500, 500)]  # every 500 s
        push = self._push_messages(updates)
        # Polling tighter than the mean update interval costs more
        # messages than push; polling looser costs fewer.
        assert self._pull_messages(updates, 100.0) > push
        assert self._pull_messages(updates, 2000.0) < push
