"""Tests for hierarchical caching (ProxyCache as an upstream) on chains.

Chains are fan-out-1 :class:`~repro.topology.tree.TopologyTree` shapes.
Wider trees and latent links are covered by
``tests/test_topology_tree.py``.
"""

from __future__ import annotations

import random

from repro.consistency.base import FixedTTRPolicy
from repro.consistency.limd import LimdPolicy
from repro.core.types import ObjectId, TTRBounds
from repro.httpsim.messages import Status, conditional_get
from repro.httpsim.network import Network
from repro.metrics.collector import collect_temporal
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.server.updates import UpdateFeeder, feed_traces
from repro.sim.kernel import Kernel
from repro.topology.levels import TreeLevel
from repro.topology.tree import TopologyTree
from repro.traces.model import trace_from_times
from repro.traces.synthetic import poisson_trace

X = ObjectId("x")


def _single_proxy_stack():
    kernel = Kernel()
    server = OriginServer()
    server.create_object(X, created_at=0.0)
    proxy = ProxyCache(kernel, Network(kernel))
    return kernel, server, proxy


class TestProxyHandleRequest:
    def test_unknown_object_is_404(self):
        _kernel, _server, proxy = _single_proxy_stack()
        response = proxy.handle_request(conditional_get(X), now=0.0)
        assert response.status is Status.NOT_FOUND

    def test_cached_object_served_with_200(self):
        _kernel, server, proxy = _single_proxy_stack()
        proxy.register_object(X, server, FixedTTRPolicy(ttr=100.0))
        response = proxy.handle_request(conditional_get(X), now=1.0)
        assert response.status is Status.OK
        assert response.version == 0
        assert response.last_modified == 0.0

    def test_304_when_child_copy_is_current(self):
        _kernel, server, proxy = _single_proxy_stack()
        proxy.register_object(X, server, FixedTTRPolicy(ttr=100.0))
        request = conditional_get(X, if_modified_since=0.0)
        response = proxy.handle_request(request, now=1.0)
        assert response.status is Status.NOT_MODIFIED

    def test_history_reflects_only_observed_versions(self):
        kernel, server, proxy = _single_proxy_stack()
        proxy.register_object(X, server, FixedTTRPolicy(ttr=50.0))
        # Three origin updates, but the proxy polls only at t=50 and
        # t=100 — it observes the versions of t=45 and t=80; the t=10
        # version was overwritten before any poll and stays invisible.
        for when in (10.0, 45.0, 80.0):
            kernel.schedule_at(
                when, lambda k, w=when: server.apply_update(X, w)
            )
        kernel.run(until=100.0)
        response = proxy.handle_request(
            conditional_get(X, want_history=True), now=100.0
        )
        history = response.modification_history
        assert history is not None
        assert 10.0 not in history
        assert 45.0 in history
        assert history[-1] == 80.0

    def test_served_history_does_not_alias_the_entry(self):
        """The entry's modification-time list is read uncopied per
        request; what a response carries must still be its own list."""
        kernel, server, proxy = _single_proxy_stack()
        proxy.register_object(X, server, FixedTTRPolicy(ttr=50.0))
        kernel.schedule_at(45.0, lambda k: server.apply_update(X, 45.0))
        kernel.run(until=100.0)
        entry = proxy.entry_for(X)
        known = list(entry.modification_times)
        assert known == [0.0, 45.0]
        modified = proxy.handle_request(
            conditional_get(X, want_history=True), now=100.0
        )
        assert modified.status is Status.OK
        assert modified.modification_history == known
        modified.modification_history.append(999.0)
        unchanged = proxy.handle_request(
            conditional_get(X, if_modified_since=45.0, want_history=True),
            now=100.0,
        )
        assert unchanged.status is Status.NOT_MODIFIED
        unchanged.modification_history.append(999.0)
        assert entry.modification_times == known

    def test_downstream_counters_tracked(self):
        _kernel, server, proxy = _single_proxy_stack()
        proxy.register_object(X, server, FixedTTRPolicy(ttr=100.0))
        proxy.handle_request(conditional_get(X), now=0.0)
        proxy.handle_request(conditional_get(ObjectId("nope")), now=0.0)
        assert proxy.counters.get("downstream_requests") == 2
        assert proxy.counters.get("downstream_404") == 1


def _chain(depth, ttl_by_level=None):
    """A fan-out-1 tree with per-level fixed TTRs, object registered."""
    kernel = Kernel()
    origin = OriginServer()
    origin.create_object(X, created_at=0.0)
    tree = TopologyTree(kernel, origin, (TreeLevel(),) * depth)
    ttl_by_level = ttl_by_level or {}
    tree.register_object(
        X,
        lambda level, _oid: FixedTTRPolicy(ttr=ttl_by_level.get(level, 60.0)),
    )
    return kernel, origin, tree


class TestChainTopology:
    def test_every_level_populated_after_registration(self):
        _kernel, _origin, tree = _chain(depth=3)
        for node in tree.nodes:
            assert node.proxy.entry_for(X).populated

    def test_root_and_edge_identities(self):
        _kernel, _origin, tree = _chain(depth=3)
        assert tree.root is tree.nodes[0]
        assert tree.edge_nodes == (tree.nodes[2],)
        assert tree.depth == 3
        assert tree.node_count == 3

    def test_upstream_wiring(self):
        _kernel, origin, tree = _chain(depth=2)
        assert tree.root.upstream is origin
        assert tree.edge_nodes[0].upstream is tree.root.proxy
        assert tree.edge_nodes[0].parent is tree.root

    def test_update_propagates_level_by_level(self):
        kernel, origin, tree = _chain(
            depth=2, ttl_by_level={0: 10.0, 1: 25.0}
        )
        kernel.schedule_at(5.0, lambda k: origin.apply_update(X, 5.0))
        kernel.run(until=100.0)
        root_snapshot = tree.root.proxy.entry_for(X).snapshot
        edge_snapshot = tree.edge_nodes[0].proxy.entry_for(X).snapshot
        assert root_snapshot is not None and root_snapshot.version == 1
        assert edge_snapshot is not None and edge_snapshot.version == 1

    def test_edge_staleness_bounded_by_sum_of_ttrs(self):
        # Root refreshes every 10 s, edge every 25 s: the edge copy can
        # be at most ~35 s behind the origin (Σ Δᵢ).
        kernel, origin, tree = _chain(
            depth=2, ttl_by_level={0: 10.0, 1: 25.0}
        )
        update_time = 7.0
        kernel.schedule_at(
            update_time, lambda k: origin.apply_update(X, update_time)
        )
        # Find the first instant the edge holds version 1.
        seen_at = []
        edge = tree.edge_nodes[0].proxy

        def probe(kernel_):
            snapshot = edge.entry_for(X).snapshot
            if snapshot and snapshot.version == 1 and not seen_at:
                seen_at.append(kernel_.now())

        for t in range(1, 100):
            kernel.schedule_at(float(t), probe)
        kernel.run(until=100.0)
        assert seen_at, "edge never saw the update"
        assert seen_at[0] - update_time <= 10.0 + 25.0 + 1.0

    def test_origin_sees_only_root_polls(self):
        kernel, origin, tree = _chain(
            depth=3, ttl_by_level={0: 10.0, 1: 10.0, 2: 10.0}
        )
        kernel.run(until=200.0)
        root_polls = tree.root.proxy.counters.get("polls")
        assert tree.origin_request_count() == root_polls
        # Deeper levels never reach the origin.
        assert sum(tree.polls_per_level()[1:]) > 0

    def test_polls_per_level_shapes(self):
        kernel, _origin, tree = _chain(depth=2)
        kernel.run(until=120.0)
        per_level_totals = tree.polls_per_level()
        per_object = tree.polls_per_level(X)
        assert len(per_level_totals) == len(per_object) == 2
        assert per_level_totals == per_object  # only one object registered


class TestHierarchyFidelity:
    def test_two_level_limd_keeps_composed_bound(self):
        """LIMD at both levels: edge out-of-sync stays within 2Δ mostly."""
        rng = random.Random(13)
        trace = poisson_trace(str(X), rng, 30.0 / 3600.0, end=4 * 3600.0)
        kernel = Kernel()
        origin = OriginServer()
        feed_traces(kernel, origin, [trace])
        delta = 120.0
        tree = TopologyTree(kernel, origin, (TreeLevel(),) * 2)
        tree.register_object(
            X,
            lambda level, _oid: LimdPolicy(
                delta, bounds=TTRBounds(ttr_min=delta, ttr_max=1800.0)
            ),
        )
        kernel.run(until=trace.end_time)
        report = collect_temporal(tree.edge_nodes[0].proxy, trace, 2 * delta)
        # The composed bound is approximate (LIMD itself is best-effort)
        # but the edge must track the origin with high time-fidelity.
        assert report.fidelity_by_time > 0.8

    def test_deep_chain_version_monotone_at_every_level(self):
        rng = random.Random(29)
        times = sorted(rng.uniform(0, 3600.0) for _ in range(40))
        trace = trace_from_times(X, times, end_time=3600.0)
        kernel = Kernel()
        origin = OriginServer()
        UpdateFeeder(kernel, origin, trace)
        tree = TopologyTree(kernel, origin, (TreeLevel(),) * 4)
        tree.register_object(
            X, lambda level, _oid: FixedTTRPolicy(ttr=30.0 + 10.0 * level)
        )
        kernel.run(until=3600.0)
        for node in tree.nodes:
            versions = [
                snapshot.version
                for snapshot in node.proxy.entry_for(X).fetch_snapshots
            ]
            assert versions == sorted(versions)


class TestHierarchyFailureRecovery:
    """Section 3.1's recovery story applied level-by-level."""

    def test_parent_recovery_does_not_break_children(self):
        kernel, origin, tree = _chain(depth=2, ttl_by_level={0: 20.0, 1: 20.0})
        kernel.schedule_at(30.0, lambda k: origin.apply_update(X, 30.0))
        # Parent crashes and recovers mid-run: TTRs reset, cache kept.
        kernel.schedule_at(
            45.0, lambda k: tree.root.proxy.recover_from_failure()
        )
        kernel.run(until=120.0)
        assert tree.root.proxy.counters.get("recoveries") == 1
        edge_snapshot = tree.edge_nodes[0].proxy.entry_for(X).snapshot
        assert edge_snapshot is not None
        # The update still propagated through the recovered parent.
        assert edge_snapshot.version == 1

    def test_edge_recovery_resets_only_edge(self):
        kernel, _origin, tree = _chain(depth=2, ttl_by_level={0: 20.0, 1: 20.0})
        edge = tree.edge_nodes[0].proxy
        kernel.schedule_at(50.0, lambda k: edge.recover_from_failure())
        kernel.run(until=100.0)
        assert edge.counters.get("recoveries") == 1
        assert tree.root.proxy.counters.get("recoveries") == 0
        # Both copies stay populated and serve requests.
        for node in tree.nodes:
            assert node.proxy.entry_for(X).populated

