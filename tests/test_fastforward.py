"""Fast-forward equivalence: analytic advance == step-by-step kernel.

The contract under test (see :mod:`repro.sim.fastforward`): running a
simulation with ``fidelity="fastforward"`` produces byte-identical
observable histories to the exact kernel — per-poll fetch logs,
proxy/origin counters, network request counts, refresher schedules and
the final result rows — for every policy, topology and workload the
engine accepts.  The property-based section drives randomized configs
through both paths and compares everything observable.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.builder import SimulationBuilder, run_simulation
from repro.api.config import LevelConfig, SimulationConfigError
from repro.api.runs import build_core, build_stack
from repro.consistency.ttl import StaticTTLPolicy
from repro.core.errors import SimulationError
from repro.core.types import ObjectId
from repro.httpsim.network import LatencyModel
from repro.sim.fastforward import FastForwardEngine
from repro.topology.levels import TreeLevel
from repro.topology.tree import TopologyTree
from repro.traces.model import UpdateTrace


def _fetch_columns(entry):
    """An entry's whole fetch log, column by column."""
    return (
        list(entry.fetch_times),
        entry.fetch_snapshots,
        entry.fetch_modified,
    )


def _assert_equivalent(exact, fast):
    """Every observable of two outcomes must match exactly."""
    assert exact.results.to_csv() == fast.results.to_csv()
    assert exact.run.kernel.now() == fast.run.kernel.now()
    assert (
        exact.run.server.counters.as_dict()
        == fast.run.server.counters.as_dict()
    )
    exact_nodes = exact.tree.nodes if exact.tree else (None,)
    fast_nodes = fast.tree.nodes if fast.tree else (None,)
    assert len(exact_nodes) == len(fast_nodes)
    for exact_node, fast_node in zip(exact_nodes, fast_nodes):
        e_proxy = exact_node.proxy if exact_node else exact.run.proxy
        f_proxy = fast_node.proxy if fast_node else fast.run.proxy
        assert e_proxy.counters.as_dict() == f_proxy.counters.as_dict()
        assert e_proxy.network.requests_sent == f_proxy.network.requests_sent
        assert sorted(map(str, e_proxy.registered_objects())) == sorted(
            map(str, f_proxy.registered_objects())
        )
        for object_id in e_proxy.registered_objects():
            e_entry = e_proxy.entry_or_none(object_id)
            f_entry = f_proxy.entry_or_none(object_id)
            assert (e_entry is None) == (f_entry is None)
            if e_entry is not None:
                assert _fetch_columns(e_entry) == _fetch_columns(f_entry)
            e_refresher = e_proxy.refresher_for(object_id)
            f_refresher = f_proxy.refresher_for(object_id)
            assert not f_refresher.detached
            assert e_refresher.next_poll_time == f_refresher.next_poll_time


def _outcome_pair(*, policy, policy_params, levels, seed, rate, horizon):
    def build(fidelity):
        return (
            SimulationBuilder()
            .workload(
                "poisson", "x", "y", rate_per_hour=rate, hours=horizon / 3600.0
            )
            .policy(policy, **policy_params)
            .topology(
                "tree",
                levels=[LevelConfig(fan_out=f) for f in levels],
            )
            .seed(seed)
            .fidelity_delta(300.0)
            .horizon(horizon)
            .fidelity(fidelity)
            .build()
        )

    return run_simulation(build("exact")), run_simulation(build("fastforward"))


class TestEquivalenceProperty:
    """Randomized configs: exact and fast-forward histories match."""

    @given(
        ttl=st.floats(min_value=20.0, max_value=1500.0),
        seed=st.integers(min_value=0, max_value=2**31),
        rate=st.floats(min_value=0.2, max_value=40.0),
        fan_outs=st.lists(
            st.integers(min_value=1, max_value=3), min_size=1, max_size=2
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_static_ttl_any_config(self, ttl, seed, rate, fan_outs):
        exact, fast = _outcome_pair(
            policy="static_ttl",
            policy_params={"ttl": ttl},
            levels=fan_outs,
            seed=seed,
            rate=rate,
            horizon=3600.0,
        )
        _assert_equivalent(exact, fast)

    @given(
        delta=st.floats(min_value=60.0, max_value=1200.0),
        seed=st.integers(min_value=0, max_value=2**31),
        rate=st.floats(min_value=0.2, max_value=40.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_limd_adaptive_policy(self, delta, seed, rate):
        # Adaptive TTRs feed every outcome back into the next poll
        # instant, so the engine's queue is re-keyed on every poll.
        exact, fast = _outcome_pair(
            policy="limd",
            policy_params={"delta": delta, "ttr_max": 1800.0},
            levels=[2],
            seed=seed,
            rate=rate,
            horizon=3600.0,
        )
        _assert_equivalent(exact, fast)


class TestEngineDirect:
    """FastForwardEngine used directly on a built stack."""

    @staticmethod
    def _stack(updates=()):
        trace = UpdateTrace(
            ObjectId("obj"),
            updates,
            [float(version) for version in range(len(updates))],
            end_time=7200.0,
        )
        kernel, server, proxy = build_stack([trace])
        proxy.register_object(
            trace.object_id, server, StaticTTLPolicy(250.0)
        )
        return kernel, server, proxy, trace

    def _run_both_and_compare(self, updates):
        """Run one stack exactly and one fast-forwarded; return the latter."""
        kernel_a, server_a, proxy_a, _trace = self._stack(updates)
        kernel_a.run(until=7200.0)

        kernel_b, server_b, proxy_b, _trace = self._stack(updates)
        engine = FastForwardEngine(kernel_b, [proxy_b])
        try:
            engine.run(7200.0)
        finally:
            engine.close()

        entry_a = proxy_a.entry_for(ObjectId("obj"))
        entry_b = proxy_b.entry_for(ObjectId("obj"))
        assert _fetch_columns(entry_a) == _fetch_columns(entry_b)
        assert proxy_a.counters.as_dict() == proxy_b.counters.as_dict()
        assert server_a.counters.as_dict() == server_b.counters.as_dict()
        assert (
            proxy_a.network.requests_sent == proxy_b.network.requests_sent
        )
        assert kernel_a.now() == kernel_b.now() == 7200.0
        return server_b, proxy_b

    def test_matches_exact_stack_on_idle_origin(self):
        # Single object, static TTL, origin never updates: every poll
        # after registration is an unmodified 304.
        server, proxy = self._run_both_and_compare(())
        # 7200 / 250 -> polls at 250, 500, ... 7000, plus registration.
        assert proxy.entry_for(ObjectId("obj")).poll_count == 1 + 28
        assert proxy.network.requests_sent == 1 + 28
        assert server.counters.get("requests") == 1 + 28
        assert server.counters.get("responses_304") == 28

    def test_matches_exact_stack_with_updates(self):
        self._run_both_and_compare((100.0, 1900.0, 1950.0, 5000.0))

    def test_close_reattaches_and_stepping_continues(self):
        updates = (300.0, 4000.0)
        kernel_a, _sa, proxy_a, _trace = self._stack(updates)
        kernel_a.run(until=7200.0)

        kernel_b, _sb, proxy_b, _trace = self._stack(updates)
        engine = FastForwardEngine(kernel_b, [proxy_b])
        engine.run(3600.0)
        engine.close()
        # After close the refresher is back on a kernel timer; plain
        # stepping to the horizon must land in the same state.
        kernel_b.run(until=7200.0)

        entry_a = proxy_a.entry_for(ObjectId("obj"))
        entry_b = proxy_b.entry_for(ObjectId("obj"))
        assert _fetch_columns(entry_a) == _fetch_columns(entry_b)

    def test_latent_link_is_rejected(self):
        trace = UpdateTrace(ObjectId("obj"), [], end_time=1000.0)
        kernel, server, proxy = build_stack(
            [trace], latency=LatencyModel(one_way=0.5)
        )
        proxy.register_object(trace.object_id, server, StaticTTLPolicy(100.0))
        with pytest.raises(SimulationError):
            FastForwardEngine(kernel, [proxy])

    def test_rejected_construction_detaches_nothing(self):
        # A (1, 2) tree whose child link is latent: the engine must
        # refuse it without first taking the root's refreshers off
        # their kernel timers (nothing could ever reattach them).
        object_id = ObjectId("obj")
        trace = UpdateTrace(object_id, [], end_time=1000.0)
        kernel, server = build_core([trace])
        tree = TopologyTree(
            kernel,
            server,
            (
                TreeLevel(fan_out=1),
                TreeLevel(fan_out=2, latency=LatencyModel(one_way=0.5)),
            ),
        )
        tree.register_object(object_id, lambda _level, _oid: StaticTTLPolicy(60.0))
        root = tree.root.proxy
        with pytest.raises(SimulationError):
            FastForwardEngine(kernel, [node.proxy for node in tree.nodes])
        assert not root.refresher_for(object_id).detached
        kernel.run(until=600.0)
        # Registration plus the 60 s polls at 60, 120, ... 600.
        assert root.counters.get("polls") == 1 + 10


class TestConfigSurface:
    def test_fidelity_round_trips_through_to_dict(self):
        config = SimulationBuilder().fidelity("fastforward").build()
        assert config.to_dict()["fidelity"] == "fastforward"
        assert config.to_dict()["shards"] == 1

    def test_unknown_fidelity_mode_rejected(self):
        with pytest.raises(SimulationConfigError):
            SimulationBuilder().fidelity("approximate").build()

    def test_fastforward_with_latent_links_rejected(self):
        config = (
            SimulationBuilder()
            .workload("poisson", "x", rate_per_hour=2.0, hours=1.0)
            .policy("static_ttl", ttl=300.0)
            .network(0.05)
            .fidelity("fastforward")
            .build()
        )
        with pytest.raises(SimulationConfigError):
            run_simulation(config)

    def test_fastforward_single_topology(self):
        def build(fidelity):
            return (
                SimulationBuilder()
                .workload("poisson", "x", rate_per_hour=6.0, hours=1.0)
                .policy("static_ttl", ttl=120.0)
                .seed(3)
                .horizon(3600.0)
                .fidelity(fidelity)
                .build()
            )

        exact = run_simulation(build("exact"))
        fast = run_simulation(build("fastforward"))
        assert exact.results.to_csv() == fast.results.to_csv()
        assert (
            exact.run.proxy.counters.as_dict()
            == fast.run.proxy.counters.as_dict()
        )
