"""Topology-tree smoke run vs depth × fan-out.

Runs a full simulation over :class:`repro.topology.tree.TopologyTree`
shapes that bracket the structures the scenario families use: a deep
fan-out-1 chain, a shallow wide tree
(one shield level fanning out to many edges), and a deep fanning tree
(the ``cdn_tree`` family's shape).  Every node polls its upstream on a
fixed TTR, so event volume scales with node count.  Nothing is timed
here (``benchmarks/e2e`` measures the tree poll path); the assertions
pin that every level of every shape polled.
"""

from __future__ import annotations

import random

import pytest

from repro.consistency.base import FixedTTRPolicy
from repro.core.types import HOUR, MINUTE
from repro.server.origin import OriginServer
from repro.server.updates import feed_traces
from repro.sim.kernel import Kernel
from repro.topology.levels import TreeLevel
from repro.topology.tree import TopologyTree
from repro.traces.synthetic import poisson_trace

HOURS = 24.0
UPDATE_RATE_PER_HOUR = 60.0
TTR = 1.0 * MINUTE

#: Per-level fan-outs of each benchmarked shape, root level first.
SHAPES = {
    "chain-d4": (1, 1, 1, 1),
    "wide-d2-f8": (1, 8),
    "tree-d3-f4": (1, 4, 4),
}


def _run_shape(fan_outs) -> TopologyTree:
    kernel = Kernel()
    origin = OriginServer()
    trace = poisson_trace(
        "bench",
        random.Random(20260729),
        UPDATE_RATE_PER_HOUR / HOUR,
        end=HOURS * HOUR,
    )
    feed_traces(kernel, origin, [trace])
    tree = TopologyTree(
        kernel,
        origin,
        [TreeLevel(fan_out=fan_out) for fan_out in fan_outs],
    )
    tree.register_object(
        trace.object_id, lambda _level, _oid: FixedTTRPolicy(ttr=TTR)
    )
    kernel.run(until=trace.end_time)
    return tree


@pytest.mark.parametrize("shape", sorted(SHAPES), ids=str)
def test_topology_tree_throughput(run_once, shape):
    tree = run_once(_run_shape, SHAPES[shape])
    # Every node ran the full TTR schedule against its upstream.
    polls = tree.polls_per_level()
    assert len(polls) == len(SHAPES[shape])
    assert all(level_polls > 0 for level_polls in polls)
    assert tree.origin_request_count() == polls[0]
