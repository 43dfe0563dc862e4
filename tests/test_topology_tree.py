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
from repro.consistency.base import FixedTTRPolicy
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
)
from repro.topology.tree import TopologyTree
from repro.server.updates import feed_traces
from repro.traces.synthetic import poisson_trace
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

    def test_staleness_bound_is_sum(self):
        assert additive_staleness_bound([600.0, 600.0, 30.0]) == 1230.0

    def test_staleness_bound_validated(self):
        with pytest.raises(TopologyError):
            additive_staleness_bound([])
        with pytest.raises(TopologyError):
            additive_staleness_bound([60.0, -1.0])

    # Scored against the origin's own trace, a level-i copy is never
    # more than Δ₀ + … + Δᵢ stale, while max(Δ) alone is exceeded.  The
    # levels poll out of phase: equal TTRs poll in lockstep and never
    # lag more than max(Δ), so they could not show the sum is needed.
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("deltas", [(60.0, 300.0), (30.0, 120.0, 600.0)])
    def test_no_node_exceeds_the_additive_bound(self, deltas, seed):
        kernel = Kernel()
        origin = OriginServer()
        trace = poisson_trace("x", random.Random(seed), 1 / 120, end=6 * 3600.0)
        feed_traces(kernel, origin, [trace])
        tree = TopologyTree(kernel, origin, [TreeLevel(fan_out=2)] * len(deltas))
        tree.register_object(
            trace.object_id,
            lambda level, _oid: FixedTTRPolicy(ttr=deltas[level]),
        )
        kernel.run(until=trace.end_time)
        for node in tree.nodes:
            bound = additive_staleness_bound(deltas[: node.level + 1])
            report = collect_temporal(node.proxy, trace, bound)
            assert report.violations == 0, node.name
        for node in tree.edge_nodes:
            report = collect_temporal(node.proxy, trace, max(deltas))
            assert report.violations > 0, node.name


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
        tree = TopologyTree(kernel, origin, (TreeLevel(),) * 2)
        with pytest.raises(TopologyError, match="level"):
            tree.nodes_at(2)

    def test_protocol_conformance(self):
        kernel, origin = _stack()
        proxy = tree_proxy = TopologyTree(
            kernel, origin, (TreeLevel(),)
        ).root.proxy
        assert isinstance(origin, Upstream)
        assert isinstance(tree_proxy, Upstream)
        assert isinstance(proxy, ProxyCache)


class TestPullTrees:
    def test_registration_requires_policy_factory_for_pull(self):
        kernel, origin = _stack()
        tree = TopologyTree(kernel, origin, (TreeLevel(),) * 2)
        with pytest.raises(TypeError, match="policy_factory"):
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
            entries = [(node.name, node.proxy.entry_for(X)) for node in tree.nodes]
            return [
                (name, time, snapshot.version)
                for name, entry in entries
                for time, snapshot in zip(entry.fetch_times, entry.fetch_snapshots)
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

    def test_instrument_needs_a_synchronous_edge_link(self):
        """An edge answers a client miss within the request, so an
        instrument on a latent edge link is rejected before the run
        whatever the cache size; the same tree runs without clients."""
        config = _poisson_tree(
            ("a", "b"),
            [
                LevelConfig(fan_out=1),
                LevelConfig(fan_out=2, network=NetworkConfig(one_way_latency_s=1.0)),
            ],
            policy=PolicyConfig("static_ttl", {"ttl": 600.0}),
        )
        instrument = partial(attach_client_pumps, clients=2000, horizon=3600.0, seed=3)
        with pytest.raises(
            SimulationConfigError,
            match=r"instrument .* edge level 1:.*one_way_latency_s and jitter_s",
        ):
            run_simulation(config, instrument=instrument)
        assert len(run_simulation(config).results) == 6  # 3 nodes x 2 objects

    def test_instrument_needs_synchronous_links_above_the_edge(self):
        """Below a latent upper link the edges register their objects
        only after a round trip, so an instrument would start no pump:
        rejected before the run, naming the first latent level."""
        config = _poisson_tree(
            ("a", "b"),
            [
                LevelConfig(fan_out=1, network=NetworkConfig(one_way_latency_s=1.0)),
                LevelConfig(fan_out=2),
            ],
            policy=PolicyConfig("static_ttl", {"ttl": 600.0}),
        )
        instrument = partial(attach_client_pumps, clients=2000, horizon=3600.0, seed=3)
        with pytest.raises(
            SimulationConfigError,
            match=r"instrument .* every level.* level 0's latent link"
            r".*one_way_latency_s and jitter_s",
        ):
            run_simulation(config, instrument=instrument)
        assert len(run_simulation(config).results) == 6  # 3 nodes x 2 objects

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

