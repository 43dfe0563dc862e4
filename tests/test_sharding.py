"""Sharded tree execution: partition planning and merge determinism.

The load-bearing property: a sharded run's merged result table is
byte-identical to the serial unsharded run — for any shard count the
tree admits, serial or process-pool execution, exact or fast-forward
fidelity.  Plus unit coverage of the partition planner's boundary
selection, range balancing, and ownership bookkeeping.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.api.builder import SimulationBuilder, run_simulation
from repro.api.config import LevelConfig, SimulationConfigError
from repro.topology.sharding import plan_shards
from repro.workload.clients import attach_client_pumps


class TestPlanShards:
    def test_boundary_is_shallowest_wide_enough_level(self):
        plan = plan_shards((1, 4, 2), 3)
        assert plan.boundary_level == 1  # widths: 1, 4, 8
        assert plan.ranges == ((0, 2), (2, 3), (3, 4))

    def test_single_shard_spans_everything(self):
        plan = plan_shards((2, 3), 1)
        assert plan.boundary_level == 0
        assert plan.ranges == ((0, 2),)

    def test_ranges_balance_within_one(self):
        plan = plan_shards((1, 10), 4)
        sizes = [stop - start for start, stop in plan.ranges]
        assert sizes == [3, 3, 2, 2]
        assert plan.ranges[0][0] == 0
        assert plan.ranges[-1][1] == 10

    def test_too_many_shards_rejected(self):
        with pytest.raises(SimulationConfigError):
            plan_shards((2, 2), 5)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SimulationConfigError):
            plan_shards((2, 2), 0)
        with pytest.raises(SimulationConfigError):
            plan_shards((), 2)

    @pytest.mark.parametrize(
        "fan_outs,shards",
        [((1, 4, 2), 3), ((2, 3), 2), ((1, 8, 16), 5), ((3,), 3)],
    )
    def test_owns_partitions_every_node_exactly_once(self, fan_outs, shards):
        plan = plan_shards(fan_outs, shards)
        all_nodes = set()
        width = 1
        for level, fan_out in enumerate(fan_outs):
            width *= fan_out
            all_nodes.update((level, index) for index in range(width))
        owned = []
        for shard in range(shards):
            selection = plan.selection(shard)
            assert selection.owns <= selection.registers
            owned.extend(selection.owns)
        assert len(owned) == len(set(owned)), "node owned twice"
        assert set(owned) == all_nodes

    def test_registers_is_ancestor_closed(self):
        plan = plan_shards((1, 4, 2), 4)
        for shard in range(4):
            selection = plan.selection(shard)
            for level, index in selection.registers:
                if level == 0:
                    continue
                parent = (level - 1, index // plan.fan_outs[level])
                assert parent in selection.registers


def _config(*, shards=1, fidelity="exact"):
    return (
        SimulationBuilder()
        .workload("poisson", "a", "b", "c", rate_per_hour=5.0, hours=1.0)
        .policy("static_ttl", ttl=200.0)
        .topology(
            "tree",
            levels=[
                LevelConfig(fan_out=1),
                LevelConfig(fan_out=3),
                LevelConfig(fan_out=2),
            ],
        )
        .seed(23)
        .fidelity_delta(300.0)
        .horizon(3600.0)
        .fidelity(fidelity)
        .shards(shards)
        .build()
    )


class TestMergeDeterminism:
    @pytest.fixture(scope="class")
    def reference_csv(self):
        return run_simulation(_config()).results.to_csv()

    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_rows_equal_serial(self, shards, reference_csv):
        outcome = run_simulation(_config(shards=shards))
        assert outcome.results.to_csv() == reference_csv

    def test_sharded_rows_equal_serial_with_process_pool(self, reference_csv):
        outcome = run_simulation(_config(shards=3), workers=2)
        assert outcome.results.to_csv() == reference_csv

    def test_fastforward_composes_with_sharding(self, reference_csv):
        outcome = run_simulation(
            _config(shards=2, fidelity="fastforward"), workers=2
        )
        assert outcome.results.to_csv() == reference_csv

    def test_client_pumps_cross_the_process_boundary(self):
        """Three shards start a pool (two never do: shard 0 runs here and
        a one-task batch runs in-process), so the pickled instrument
        runs in a worker."""
        pumps = partial(attach_client_pumps, clients=3000, horizon=3600.0, seed=23)
        serial = run_simulation(_config(), instrument=pumps)
        served = sum(
            proxy.counters.get("client_hits") + proxy.counters.get("client_misses")
            for proxy in serial.edges
        )
        assert 2700 < served < 3300
        sharded = run_simulation(_config(shards=3), workers=2, instrument=pumps)
        assert sharded.results.to_csv() == serial.results.to_csv()

    def test_outcome_exposes_live_shard0_tree(self):
        outcome = run_simulation(_config(shards=2))
        assert outcome.tree is not None
        # Shard 0 registered its cone only; its first edge node polled.
        assert outcome.tree.nodes_at(0)[0].proxy.counters.get("polls") > 0


class TestValidation:
    def test_shards_require_tree_topology(self):
        with pytest.raises(SimulationConfigError):
            SimulationBuilder().topology("single").shards(2).build()

    def test_shards_below_one_rejected(self):
        with pytest.raises(SimulationConfigError):
            SimulationBuilder().shards(0).build()

    def test_instrument_requires_tree_topology(self):
        config = (
            SimulationBuilder()
            .workload("poisson", "a", rate_per_hour=2.0, hours=1.0)
            .policy("static_ttl", ttl=300.0)
            .topology("single")
            .horizon(3600.0)
            .build()
        )
        with pytest.raises(SimulationConfigError):
            run_simulation(config, instrument=lambda tree: None)

    def test_instrument_on_a_bounded_sharded_tree_rejected(self):
        """Client misses would fetch through the shared ancestors' bounded
        caches, so shards could no longer reproduce the serial rows."""
        bounded = SimulationBuilder(_config(shards=3)).cache(2).build()
        pumps = partial(attach_client_pumps, clients=300, horizon=3600.0, seed=23)
        with pytest.raises(SimulationConfigError, match="unbounded cache"):
            run_simulation(bounded, instrument=pumps)
        # Without an instrument, or unsharded, the bounded tree runs.
        run_simulation(bounded)
        run_simulation(SimulationBuilder(bounded).shards(1).build(), instrument=pumps)

    def test_more_shards_than_tree_width_rejected(self):
        with pytest.raises(SimulationConfigError):
            run_simulation(_config(shards=7))
