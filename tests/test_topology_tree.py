"""Tests for the first-class topology layer (repro.topology)."""

from __future__ import annotations

import random
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    CacheConfig,
    LevelConfig,
    NetworkConfig,
    PolicyConfig,
    SimulationBuilder,
    SimulationConfig,
    SimulationConfigError,
    TopologyConfig,
    WorkloadConfig,
    run_simulation,
)
from repro.consistency.base import FixedTTRPolicy, PassivePolicy
from repro.core.types import ObjectId
from repro.httpsim.network import LatencyModel
from repro.httpsim.semantics import Upstream
from repro.metrics.collector import collect_temporal
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.sim.kernel import Kernel
from repro.topology.levels import (
    TopologyError,
    TreeLevel,
    additive_staleness_bound,
    uniform_levels,
)
from repro.topology.protocols import PushSource
from repro.topology.push import PushFanout
from repro.topology.tree import TopologyTree
from repro.traces.model import trace_from_times
from repro.server.updates import feed_traces
from repro.workload.clients import attach_client_pumps

X = ObjectId("x")


def _fixed(ttr=30.0):
    return lambda _level, _oid: FixedTTRPolicy(ttr=ttr)


def _stack():
    kernel = Kernel()
    origin = OriginServer()
    origin.create_object(X, created_at=0.0)
    return kernel, origin


class TestTreeLevel:
    def test_fan_out_validated(self):
        with pytest.raises(TopologyError, match="fan_out"):
            TreeLevel(fan_out=0)

    def test_mode_validated(self):
        with pytest.raises(TopologyError, match="mode"):
            TreeLevel(mode="gossip")

    def test_uniform_levels(self):
        levels = uniform_levels(3, fan_out=2, mode="push")
        assert len(levels) == 3
        assert all(level.fan_out == 2 for level in levels)
        assert all(level.mode == "push" for level in levels)

    def test_uniform_levels_depth_validated(self):
        with pytest.raises(TopologyError, match="depth"):
            uniform_levels(0)

    def test_staleness_bound_is_sum(self):
        assert additive_staleness_bound([600.0, 600.0, 30.0]) == 1230.0

    def test_staleness_bound_validated(self):
        with pytest.raises(TopologyError):
            additive_staleness_bound([])
        with pytest.raises(TopologyError):
            additive_staleness_bound([60.0, -1.0])


class TestConstruction:
    def test_empty_levels_rejected(self):
        kernel, origin = _stack()
        with pytest.raises(TopologyError, match="at least one level"):
            TopologyTree(kernel, origin, [])

    def test_duplicate_node_names_rejected(self):
        # register_object keys its result by node name; a colliding
        # namer would silently drop policies, so construction fails.
        kernel, origin = _stack()
        with pytest.raises(TopologyError, match="duplicate node names"):
            TopologyTree(
                kernel,
                origin,
                [TreeLevel(fan_out=1), TreeLevel(fan_out=2)],
                node_namer=lambda _level, _index: "edge",
            )

    def test_node_counts_multiply_per_level(self):
        kernel, origin = _stack()
        tree = TopologyTree(
            kernel,
            origin,
            [TreeLevel(fan_out=1), TreeLevel(fan_out=3), TreeLevel(fan_out=2)],
        )
        assert [len(tree.nodes_at(i)) for i in range(3)] == [1, 3, 6]
        assert tree.node_count == 10
        assert len(tree.edge_nodes) == 6
        assert tree.depth == 3

    def test_default_names_and_positions(self):
        kernel, origin = _stack()
        tree = TopologyTree(
            kernel, origin, [TreeLevel(fan_out=2), TreeLevel(fan_out=2)]
        )
        assert [node.name for node in tree.nodes] == [
            "L0.N0",
            "L0.N1",
            "L1.N0",
            "L1.N1",
            "L1.N2",
            "L1.N3",
        ]
        for node in tree.nodes_at(1):
            assert node.parent in tree.nodes_at(0)
            assert node in node.parent.children
            assert node.is_edge

    def test_wide_roots_attach_to_origin(self):
        kernel, origin = _stack()
        tree = TopologyTree(kernel, origin, [TreeLevel(fan_out=3)])
        assert all(node.upstream is origin for node in tree.nodes_at(0))
        with pytest.raises(TopologyError, match="level-0 nodes"):
            tree.root

    def test_nodes_at_bounds_checked(self):
        kernel, origin = _stack()
        tree = TopologyTree(kernel, origin, uniform_levels(2))
        with pytest.raises(TopologyError, match="level"):
            tree.nodes_at(2)

    def test_protocol_conformance(self):
        kernel, origin = _stack()
        proxy = tree_proxy = TopologyTree(
            kernel, origin, uniform_levels(1)
        ).root.proxy
        assert isinstance(origin, Upstream)
        assert isinstance(tree_proxy, Upstream)
        assert isinstance(PushFanout(kernel), PushSource)
        assert isinstance(proxy, ProxyCache)


class TestPullTrees:
    def test_registration_requires_policy_factory_for_pull(self):
        kernel, origin = _stack()
        tree = TopologyTree(kernel, origin, uniform_levels(2))
        with pytest.raises(TopologyError, match="policy_factory"):
            tree.register_object(X)

    def test_policies_installed_per_node(self):
        kernel, origin = _stack()
        tree = TopologyTree(
            kernel, origin, [TreeLevel(fan_out=1), TreeLevel(fan_out=2)]
        )
        policies = tree.register_object(X, _fixed())
        assert sorted(policies) == ["L0.N0", "L1.N0", "L1.N1"]
        assert all(
            isinstance(policy, FixedTTRPolicy) for policy in policies.values()
        )

    def test_update_reaches_every_edge(self):
        kernel, origin = _stack()
        tree = TopologyTree(
            kernel,
            origin,
            [TreeLevel(fan_out=1), TreeLevel(fan_out=2), TreeLevel(fan_out=2)],
        )
        tree.register_object(X, _fixed(ttr=10.0))
        kernel.schedule_at(5.0, lambda k: origin.apply_update(X, 5.0))
        kernel.run(until=100.0)
        for node in tree.nodes:
            snapshot = node.proxy.entry_for(X).snapshot
            assert snapshot is not None and snapshot.version == 1, node.name

    def test_latent_links_defer_registration_past_upstream_warm_up(self):
        # Regression: on a latent link a child's initial fetch used to
        # race its parent's own initial fetch and 404.  A child now
        # installs only once its upstream's first poll completed.
        kernel, origin = _stack()
        latency = LatencyModel(one_way=2.0)
        tree = TopologyTree(
            kernel,
            origin,
            [
                TreeLevel(fan_out=1, latency=latency),
                TreeLevel(fan_out=2, latency=latency),
                TreeLevel(fan_out=2, latency=latency),
            ],
        )
        tree.register_object(X, _fixed(ttr=10.0))
        kernel.run(until=100.0)
        for node in tree.nodes:
            snapshot = node.proxy.entry_for(X).snapshot
            assert snapshot is not None, node.name
            assert node.proxy.entry_for(X).poll_count > 0, node.name

    def test_synchronous_child_below_latent_link_waits_for_parent(self):
        # Regression: a zero-latency child link below a latent parent
        # link used to fire its initial fetch at the exact kernel time
        # the parent's response arrived — and ahead of it in FIFO
        # order — crashing on a 404 from the unpopulated parent.
        kernel, origin = _stack()
        tree = TopologyTree(
            kernel,
            origin,
            [
                TreeLevel(fan_out=1, latency=LatencyModel(one_way=1.0)),
                TreeLevel(fan_out=1),
            ],
        )
        tree.register_object(X, _fixed(ttr=10.0))
        kernel.run(until=50.0)
        for node in tree.nodes:
            assert node.proxy.entry_for(X).snapshot is not None, node.name

    def test_origin_sees_only_level0_traffic(self):
        kernel, origin = _stack()
        tree = TopologyTree(
            kernel, origin, [TreeLevel(fan_out=2), TreeLevel(fan_out=4)]
        )
        tree.register_object(X, _fixed(ttr=10.0))
        kernel.run(until=200.0)
        per_level = tree.polls_per_level()
        assert tree.origin_request_count() == per_level[0]
        assert per_level[1] > 0
        assert tree.total_polls() == sum(per_level)

    def test_deterministic_rebuild(self):
        def fetch_log():
            kernel, origin = _stack()
            tree = TopologyTree(
                kernel, origin, [TreeLevel(fan_out=1), TreeLevel(fan_out=3)]
            )
            tree.register_object(X, _fixed(ttr=15.0))
            for when in (7.0, 33.0, 80.0):
                kernel.schedule_at(
                    when, lambda k, w=when: origin.apply_update(X, w)
                )
            kernel.run(until=150.0)
            return [
                (node.name, record.time, record.snapshot.version)
                for node in tree.nodes
                for record in node.proxy.entry_for(X).fetch_log
            ]

        assert fetch_log() == fetch_log()


def _poisson_tree(objects, levels, **fields) -> SimulationConfig:
    """A one-hour run of a tree over ``objects``, each updated 6 times/h."""
    return SimulationConfig(
        workload=WorkloadConfig(
            source="poisson",
            objects=objects,
            params={"rate_per_hour": 6.0, "hours": 1.0},
        ),
        topology=TopologyConfig(kind="tree", levels=tuple(levels)),
        horizon_s=3600.0,
        **fields,
    )


class TestBoundedTrees:
    def test_parent_eviction_is_fetched_through_not_404(self):
        # Regression: a parent that had evicted an object answered its
        # child's conditional GET with 404 and the child's poll raised
        # ProtocolError.  A miss on a synchronous link now fetches
        # through, like a client miss.
        objects = [f"obj{i}" for i in range(64)]
        horizon = 3600.0
        config = (
            SimulationBuilder()
            .workload("poisson", *objects, rate_per_hour=4.0, hours=1.0)
            .policy("static_ttl", ttl=600.0)
            .topology("tree", levels=[LevelConfig(fan_out=2), LevelConfig(fan_out=4)])
            .cache(8)
            .seed(0)
            .horizon(horizon)
            .build()
        )

        def attach_clients(tree):
            rng = random.Random(0)
            edges = tree.edge_nodes
            for _ in range(20_000):
                request = edges[rng.randrange(len(edges))].proxy.handle_client_request
                object_id = ObjectId(rng.choice(objects))
                tree.kernel.schedule_at(
                    rng.uniform(0.0, horizon),
                    lambda k, request=request, object_id=object_id: request(object_id),
                )

        outcome = run_simulation(config, instrument=attach_clients)
        tree = outcome.tree
        assert tree is not None
        parents = [node.proxy for node in tree.nodes_at(0)]
        assert sum(p.cache.eviction_count for p in parents) > 0
        assert sum(p.counters.get("polls_cache_miss") for p in parents) > 0
        assert sum(p.counters.get("downstream_404") for p in parents) == 0

    @pytest.mark.parametrize(
        "latent, clients, rejected_level",
        [
            ((True, False), False, 0),
            ((True, True), False, 0),
            ((True,), True, 0),
            ((False, True), True, 1),
            ((True, True), True, 0),
            ((False, True), False, None),
            ((True,), False, None),
        ],
        ids=[
            "parent-latent",
            "both-latent",
            "clients-one-level-latent",
            "clients-edge-latent",
            "clients-both-latent",
            "edge-latent-runs",
            "one-level-latent-runs",
        ],
    )
    def test_bounded_cache_behind_latent_link(
        self, latent, clients, rejected_level
    ):
        """A bounded cache that must answer a miss within one call needs
        a synchronous link; anything else is rejected before the run.

        ``latent`` says, per level, whether its upstream link has 0.5 s
        latency.  Levels above the edge answer their children's polls,
        and the edge answers client requests when an instrument sends
        them.
        """
        config = _poisson_tree(
            ("a", "b", "c", "d"),
            [
                LevelConfig(
                    fan_out=2,
                    network=NetworkConfig(one_way_latency_s=0.5)
                    if is_latent
                    else None,
                )
                for is_latent in latent
            ],
            policy=PolicyConfig("static_ttl", {"ttl": 60.0}),
            cache=CacheConfig(capacity=2),
        )
        instrument = (
            partial(attach_client_pumps, clients=200, horizon=3600.0, seed=1)
            if clients
            else None
        )
        if rejected_level is None:
            outcome = run_simulation(config, instrument=instrument)
            assert sum(outcome.results.column("evictions")) > 0
            return
        with pytest.raises(
            SimulationConfigError,
            match=rf"cache\.capacity .* level {rejected_level}:"
            r".*one_way_latency_s and jitter_s",
        ):
            run_simulation(config, instrument=instrument)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        fan_outs=st.sampled_from([(1,), (1, 3), (2, 2, 2)]),
        policy=st.sampled_from(
            [
                PolicyConfig("static_ttl", {"ttl": 60.0}),
                PolicyConfig("limd", {"delta": 300.0}),
            ]
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_unbounded_equals_a_bounded_cache_that_never_fills(
        self, seed, fan_outs, policy
    ):
        objects = ("a", "b", "c", "d", "e")
        config = _poisson_tree(
            objects,
            [LevelConfig(fan_out=n) for n in fan_outs],
            policy=policy,
            seed=seed,
            fidelity_delta_s=300.0,
        )
        instrument = partial(
            attach_client_pumps, clients=300, horizon=3600.0, seed=seed
        )

        def results(capacity):
            bounded = replace(config, cache=CacheConfig(capacity=capacity))
            return run_simulation(bounded, instrument=instrument).results

        assert results(len(objects)).to_csv() == results(None).to_csv()
        # The control: one slot fewer than the population must evict.
        assert sum(results(len(objects) - 1).column("evictions")) > 0


class TestPushTrees:
    def test_push_root_is_strongly_consistent(self):
        kernel = Kernel()
        origin = OriginServer()
        trace = trace_from_times(X, [10.0, 30.0, 50.0], end_time=100.0)
        feed_traces(kernel, origin, [trace])
        tree = TopologyTree(kernel, origin, [TreeLevel(fan_out=1, mode="push")])
        policies = tree.register_object(X)
        assert isinstance(policies["L0.N0"], PassivePolicy)
        kernel.run(until=100.0)
        proxy = tree.root.proxy
        # Zero latency: every update reaches the cache at its commit
        # instant — zero out-of-sync time at any evaluation delta.
        report = collect_temporal(proxy, trace, delta=0.001).report
        assert report.out_sync_time == 0.0
        # One fetch per update plus the initial fetch.
        assert proxy.entry_for(X).poll_count == 4
        assert tree.push_notifications() == 3

    def test_push_cost_scales_with_updates_not_horizon(self):
        kernel = Kernel()
        origin = OriginServer()
        trace = trace_from_times(X, [10.0], end_time=100000.0)
        feed_traces(kernel, origin, [trace])
        tree = TopologyTree(kernel, origin, [TreeLevel(fan_out=1, mode="push")])
        tree.register_object(X)
        kernel.run(until=100000.0)
        assert tree.root.proxy.entry_for(X).poll_count == 2

    def test_push_level0_requires_listener_capable_origin(self):
        class BareUpstream:
            name = "bare"

            def handle_request(self, request, now):  # pragma: no cover
                raise AssertionError("never polled")

        kernel = Kernel()
        with pytest.raises(TopologyError, match="update listeners"):
            TopologyTree(
                kernel, BareUpstream(), [TreeLevel(fan_out=1, mode="push")]
            )

    def test_push_delivery_latency_delays_edge_copies(self):
        kernel, origin = _stack()
        tree = TopologyTree(
            kernel,
            origin,
            [
                TreeLevel(
                    fan_out=1,
                    mode="push",
                    latency=LatencyModel(one_way=2.0),
                )
            ],
        )
        tree.register_object(X)
        seen = []
        kernel.schedule_at(5.0, lambda k: origin.apply_update(X, 5.0))

        def probe(kernel_):
            snapshot = tree.root.proxy.entry_for(X).snapshot
            if snapshot and snapshot.version == 1 and not seen:
                seen.append(kernel_.now())

        for t in range(1, 40):
            kernel.schedule_at(t / 2.0, probe)
        kernel.run(until=20.0)
        # Notification after one-way latency, then the fetch's own
        # round trip (2 s each way): version 1 lands at t = 5 + 2 + 4.
        assert seen and seen[0] >= 5.0 + 2.0

    def test_interior_push_relays_only_observed_updates(self):
        # Parent polls every 50 s; intermediate origin versions the
        # parent never saw must stay invisible to the push edge.
        kernel, origin = _stack()
        tree = TopologyTree(
            kernel,
            origin,
            [TreeLevel(fan_out=1, mode="pull"), TreeLevel(fan_out=2, mode="push")],
        )
        tree.register_object(X, _fixed(ttr=50.0))
        for when in (10.0, 45.0, 80.0):
            kernel.schedule_at(
                when, lambda k, w=when: origin.apply_update(X, w)
            )
        kernel.run(until=200.0)
        for node in tree.edge_nodes:
            versions = [
                record.snapshot.version
                for record in node.proxy.entry_for(X).fetch_log
                if record.modified
            ]
            # Version 1 (t=10) was overwritten before the parent's t=50
            # poll: after the initial fetch (version 0) the edges are
            # pushed versions 2 and 3 only.
            assert versions == [0, 2, 3]
            assert 1 not in versions
        # Two observed updates relayed to two subscribers each.
        assert tree.push_notifications() == 4

    def test_hybrid_push_root_pull_edges(self):
        kernel, origin = _stack()
        tree = TopologyTree(
            kernel,
            origin,
            [TreeLevel(fan_out=1, mode="push"), TreeLevel(fan_out=3, mode="pull")],
        )
        tree.register_object(X, _fixed(ttr=25.0))
        kernel.schedule_at(40.0, lambda k: origin.apply_update(X, 40.0))
        kernel.run(until=200.0)
        # The root tracked the origin exactly (1 notification), while
        # the edges polled on their own TTR schedule.
        assert tree.push_notifications() == 1
        per_level = tree.polls_per_level()
        assert per_level[0] == 2  # initial fetch + one pushed fetch
        assert per_level[1] > 3 * 3
        for node in tree.edge_nodes:
            assert node.proxy.entry_for(X).snapshot.version == 1


class TestPushFanout:
    def test_subscribe_notify_unsubscribe(self):
        kernel = Kernel()
        fanout = PushFanout(kernel)
        seen = []
        callback = lambda oid, t: seen.append((oid, t))  # noqa: E731
        fanout.subscribe(X, callback)
        assert fanout.subscriber_count(X) == 1
        fanout.notify(X, 5.0)
        assert seen == [(X, 5.0)]
        assert fanout.counters.get("notifications") == 1
        fanout.unsubscribe(X, callback)
        fanout.notify(X, 6.0)
        assert seen == [(X, 5.0)]

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="notify_latency"):
            PushFanout(Kernel(), notify_latency=-1.0)

    def test_delayed_delivery_uses_kernel(self):
        kernel = Kernel()
        fanout = PushFanout(kernel, notify_latency=2.5)
        seen = []
        fanout.subscribe(X, lambda oid, t: seen.append(kernel.now()))
        kernel.schedule_at(5.0, lambda k: fanout.notify(X, 5.0))
        kernel.run()
        assert seen == [7.5]

    def test_delayed_delivery_reaches_every_subscriber(self):
        # Regression: the deferred-delivery lambda must bind the
        # subscriber callback by value, not capture the loop variable —
        # late binding delivered every notification to the last one.
        kernel = Kernel()
        fanout = PushFanout(kernel, notify_latency=1.0)
        delivered = []
        fanout.subscribe(X, lambda oid, t: delivered.append("A"))
        fanout.subscribe(X, lambda oid, t: delivered.append("B"))
        kernel.schedule_at(0.0, lambda k: fanout.notify(X, 0.0))
        kernel.run()
        assert sorted(delivered) == ["A", "B"]


class TestOriginUpdateListeners:
    def test_listener_sees_every_applied_update(self):
        kernel, origin = _stack()
        seen = []
        origin.add_update_listener(lambda oid, t: seen.append((oid, t)))
        origin.apply_update(X, 3.0)
        origin.apply_update(X, 9.0)
        assert seen == [(X, 3.0), (X, 9.0)]

    def test_remove_listener(self):
        kernel, origin = _stack()
        seen = []
        listener = lambda oid, t: seen.append(t)  # noqa: E731
        origin.add_update_listener(listener)
        origin.remove_update_listener(listener)
        origin.remove_update_listener(listener)  # idempotent
        origin.apply_update(X, 3.0)
        assert seen == []


class TestPollCounts:
    """The per-poll counts are bumped in place, off any call path; they
    must read exactly as when ``Counter.increment`` kept them."""

    #: ``counters.as_dict()`` of a (1, 2, 2) tree as PR 13 produced it,
    #: per link latency: the nodes that serve children, then the edges.
    FROZEN = {
        0.0: (
            {
                "polls": 93,
                "polls_initial_fetch": 3,
                "polls_modified": 34,
                "downstream_requests": 186,
                "polls_ttr_expired": 90,
            },
            {
                "polls": 93,
                "polls_initial_fetch": 3,
                "polls_modified": 34,
                "polls_ttr_expired": 90,
            },
        ),
        0.05: (
            {
                "polls": 90,
                "polls_initial_fetch": 3,
                "polls_modified": 32,
                "downstream_requests": 180,
                "polls_ttr_expired": 87,
            },
            {
                "polls": 90,
                "polls_initial_fetch": 3,
                "polls_modified": 32,
                "polls_ttr_expired": 87,
            },
        ),
    }

    def _run(self, one_way_latency_s):
        return (
            SimulationBuilder()
            .workload("poisson", "a", "b", "c", rate_per_hour=60.0, hours=0.25)
            .policy("static_ttl", ttl=30.0)
            .topology("tree", levels=[LevelConfig(fan_out=f) for f in (1, 2, 2)])
            .network(one_way_latency_s)
            .seed(11)
            .horizon(900.0)
            .run()
        )

    @pytest.mark.parametrize("one_way_latency_s", [0.0, 0.05])
    def test_counts_match_the_frozen_values(self, one_way_latency_s):
        outcome = self._run(one_way_latency_s)
        inner, edge = self.FROZEN[one_way_latency_s]
        edges = outcome.tree.edge_nodes
        for node in outcome.tree.nodes:
            expected = edge if node in edges else inner
            assert node.proxy.counters.as_dict() == expected
            assert list(node.proxy.counters) == list(expected)

    def test_synchronous_polls_equal_requests_on_the_links(self):
        proxies = [node.proxy for node in self._run(0.0).tree.nodes]
        assert all(proxy.network.synchronous for proxy in proxies)
        assert sum(proxy.counters.get("polls") for proxy in proxies) == sum(
            proxy.network.requests_sent for proxy in proxies
        )

    def test_latent_polls_all_complete(self):
        """A latent link finishes its polls through the same completion
        step: every request sent is answered, recorded and re-armed."""
        for node in self._run(0.05).tree.nodes:
            proxy = node.proxy
            assert not proxy.network.synchronous
            polls = proxy.counters.get("polls")
            assert proxy.network.requests_sent == polls
            entries = [proxy.entry_for(o) for o in proxy.registered_objects()]
            assert sum(entry.poll_count for entry in entries) == polls
            assert all(
                proxy.refresher_for(o).next_poll_time is not None
                for o in proxy.registered_objects()
            )

