"""Server push (the paper's footnote-1 extension): channel and cost model.

Push is a tree level (``TreeLevel(mode="push")``); strong consistency,
cost proportional to updates and latency-bounded staleness of a push
root are pinned in ``tests/test_topology_tree.py::TestPushTrees``.
"""

from __future__ import annotations

import pytest

from repro.api.runs import build_core, run_individual
from repro.consistency.base import fixed_policy_factory
from repro.core.types import ObjectId
from repro.server.origin import OriginServer
from repro.sim.kernel import Kernel
from repro.topology.levels import TreeLevel
from repro.topology.push import OriginPushSource
from repro.topology.tree import TopologyTree
from repro.traces.model import trace_from_times

X = ObjectId("x")


def build_push_stack(*, notify_latency=0.0):
    kernel = Kernel()
    server = OriginServer()
    server.create_object(X, created_at=0.0)
    channel = OriginPushSource(kernel, server, notify_latency=notify_latency)
    return kernel, server, channel


class TestPushChannel:
    """The origin's push channel: the fan-out bound to its update stream."""

    def test_subscribers_notified_on_update(self):
        kernel, server, channel = build_push_stack()
        seen = []
        channel.subscribe(X, lambda oid, t: seen.append((oid, t)))
        server.apply_update(X, 5.0)
        assert seen == [(X, 5.0)]
        assert channel.counters.get("notifications") == 1

    def test_unsubscribe_stops_notifications(self):
        kernel, server, channel = build_push_stack()
        seen = []
        callback = lambda oid, t: seen.append(t)  # noqa: E731
        channel.subscribe(X, callback)
        channel.unsubscribe(X, callback)
        server.apply_update(X, 5.0)
        assert seen == []

    def test_notification_latency_delays_delivery(self):
        kernel, server, channel = build_push_stack(notify_latency=2.0)
        seen = []
        channel.subscribe(X, lambda oid, t: seen.append(kernel.now()))
        kernel.schedule_at(5.0, lambda k: server.apply_update(X, 5.0))
        kernel.run()
        assert seen == [7.0]

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            OriginPushSource(Kernel(), OriginServer(), notify_latency=-1.0)

    def test_subscriber_count(self):
        kernel, server, channel = build_push_stack()
        assert channel.subscriber_count(X) == 0
        channel.subscribe(X, lambda oid, t: None)
        assert channel.subscriber_count(X) == 1


class TestMessageCostCrossover:
    """Pin the push level's cost-model claim, not just the bench's shape.

    Push sends one notification + one fetch per *update*; polling
    sends one conditional GET per *poll interval*.  Message cost must
    therefore scale with the update rate under push and with the poll
    rate (horizon / Δ) under pull, independent of the other knob.
    """

    HORIZON = 10_000.0

    def _push_messages(self, update_times):
        trace = trace_from_times(X, update_times, end_time=self.HORIZON)
        kernel, server = build_core([trace])
        tree = TopologyTree(kernel, server, [TreeLevel(mode="push")])
        tree.register_object(X)
        kernel.run(until=self.HORIZON)
        return tree.push_notifications() + tree.total_polls()

    def _pull_messages(self, update_times, delta):
        trace = trace_from_times(X, update_times, end_time=self.HORIZON)
        result = run_individual([trace], fixed_policy_factory(delta))
        return result.polls_of(X)

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
