"""Canonical simulation run functions (the former ``experiments.runner``).

This module is the façade's execution layer: it owns stack assembly
(kernel, origin server, trace feeders, network, proxy) and the
domain-level run functions every experiment uses.

All paper experiments use a synchronous network (fixed zero latency, as
the paper holds latency fixed and out of scope) and the history-capable
server unless an ablation says otherwise.

Experiments that are not value sweeps but still consist of several
independent simulations (figure 8's two approaches, the ablation
configuration grids, the topology comparison) parallelise through
:func:`run_many`, the same executor seam
:func:`repro.scenarios.engine.run_scenario` uses: hand it zero-argument
picklable run-specs (``functools.partial`` over module-level functions)
and it returns their results in input order, serially or across a
process pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.api.executors import SweepExecutor, executor_for
from repro.consistency.base import PolicyFactory
from repro.consistency.mutual_temporal import (
    MutualTemporalCoordinator,
    MutualTemporalMode,
)
from repro.consistency.mutual_value import (
    AdaptiveFCoordinator,
    AdaptiveFParameters,
    GroupBudget,
    PartitionedGroupMvCoordinator,
    PartitionedMvCoordinator,
    PartitionParameters,
)
from repro.core.types import ObjectId, Seconds, TTRBounds
from repro.groups.registry import GroupRegistry
from repro.httpsim.network import LatencyModel
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.server.updates import feed_traces
from repro.sim.kernel import Kernel
from repro.topology.levels import TreeLevel
from repro.topology.tree import TopologyTree
from repro.traces.model import UpdateTrace

R = TypeVar("R")


def _invoke(task: Callable[[], R]) -> R:
    """Call a zero-argument run-spec (module-level so workers can unpickle it)."""
    return task()


def run_many(
    tasks: Sequence[Callable[[], R]],
    *,
    workers: Optional[int] = None,
    executor: Optional[SweepExecutor] = None,
) -> List[R]:
    """Run independent zero-argument run-specs, results in input order.

    With ``workers`` > 1 each task executes in a worker process, so the
    task (and its return value) must pickle: use ``functools.partial``
    over a module-level function and return plain data (rows, series),
    not live simulation objects.
    """
    return executor_for(workers, executor).map(_invoke, list(tasks))


@dataclass
class RunResult:
    """Everything a finished simulation exposes for analysis."""

    kernel: Kernel
    server: OriginServer
    proxy: ProxyCache
    traces: Dict[ObjectId, UpdateTrace]
    mutual_coordinator: Optional[MutualTemporalCoordinator] = None
    adaptive_f: Optional[AdaptiveFCoordinator] = None
    partitioned: Optional[PartitionedMvCoordinator] = None
    partitioned_group: Optional[PartitionedGroupMvCoordinator] = None

    def polls_of(self, object_id: ObjectId) -> int:
        return self.proxy.entry_for(object_id).poll_count

    @property
    def total_polls(self) -> int:
        return self.proxy.counters.get("polls")


def build_core(
    traces: Sequence[UpdateTrace],
    *,
    supports_history: bool = True,
) -> Tuple[Kernel, OriginServer]:
    """Assemble the topology-independent substrate: kernel + fed origin.

    Every topology — the single proxy, the one-parent hierarchy, an
    arbitrary :class:`~repro.topology.tree.TopologyTree` — grows out of
    this same core.
    """
    kernel = Kernel()
    server = OriginServer(supports_history=supports_history)
    feed_traces(kernel, server, traces)
    return kernel, server


def build_stack(
    traces: Sequence[UpdateTrace],
    *,
    supports_history: bool = True,
    want_history: bool = True,
    latency: LatencyModel = LatencyModel(),
    network_rng: Optional[random.Random] = None,
) -> Tuple[Kernel, OriginServer, ProxyCache]:
    """Assemble the standard stack: kernel, fed origin, network, proxy.

    The one place the paper's single-proxy setting is wired together;
    every run function builds on it.  The proxy is the root (and only
    node) of a one-level :class:`~repro.topology.tree.TopologyTree`, so
    the single-proxy stack and the deep trees
    :func:`repro.api.builder.run_simulation` builds are the same layer.
    Objects are *not* registered — callers attach policies (and any
    coordinators) before running the kernel.  ``network_rng`` seeds
    latency jitter; without it a jittery :class:`LatencyModel` degrades
    to its fixed ``one_way`` latency.
    """
    kernel, server = build_core(traces, supports_history=supports_history)
    tree = TopologyTree(
        kernel,
        server,
        (TreeLevel(fan_out=1, latency=latency),),
        want_history=want_history,
        link_rng=lambda _label: network_rng,
        node_namer=lambda _level, _index: "proxy",
    )
    return kernel, server, tree.root.proxy


def run_individual(
    traces: Sequence[UpdateTrace],
    policy_factory: PolicyFactory,
    *,
    horizon: Optional[Seconds] = None,
    supports_history: bool = True,
    want_history: bool = True,
    latency: LatencyModel = LatencyModel(),
) -> RunResult:
    """Run individual-consistency maintenance over one or more traces.

    Each trace's object is registered with its own policy instance from
    ``policy_factory``; the run covers the longest trace window (or an
    explicit ``horizon``).
    """
    if not traces:
        raise ValueError("need at least one trace")
    kernel, server, proxy = build_stack(
        traces,
        supports_history=supports_history,
        want_history=want_history,
        latency=latency,
    )
    for trace in traces:
        proxy.register_object(
            trace.object_id, server, policy_factory(trace.object_id)
        )
    end = horizon if horizon is not None else max(t.end_time for t in traces)
    kernel.run(until=end)
    return RunResult(
        kernel=kernel,
        server=server,
        proxy=proxy,
        traces={t.object_id: t for t in traces},
    )


def run_mutual_temporal(
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    policy_factory: PolicyFactory,
    mutual_delta: Seconds,
    mode: MutualTemporalMode,
    *,
    rate_ratio_threshold: float = 0.8,
    horizon: Optional[Seconds] = None,
    supports_history: bool = True,
    want_history: bool = True,
) -> RunResult:
    """Run a pair under LIMD plus a Section 3.2 mutual mode."""
    kernel, server, proxy = build_stack(
        (trace_a, trace_b),
        supports_history=supports_history,
        want_history=want_history,
        latency=LatencyModel(),
    )
    groups = GroupRegistry()
    groups.create_group(
        "pair", (trace_a.object_id, trace_b.object_id), mutual_delta
    )
    coordinator = MutualTemporalCoordinator(
        proxy,
        groups,
        mode=mode,
        rate_ratio_threshold=rate_ratio_threshold,
    )
    for trace in (trace_a, trace_b):
        proxy.register_object(
            trace.object_id, server, policy_factory(trace.object_id)
        )
    end = (
        horizon
        if horizon is not None
        else max(trace_a.end_time, trace_b.end_time)
    )
    kernel.run(until=end)
    return RunResult(
        kernel=kernel,
        server=server,
        proxy=proxy,
        traces={trace_a.object_id: trace_a, trace_b.object_id: trace_b},
        mutual_coordinator=coordinator,
    )


def run_mutual_value_adaptive(
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    mutual_delta: float,
    *,
    bounds: TTRBounds,
    parameters: AdaptiveFParameters = AdaptiveFParameters(),
    horizon: Optional[Seconds] = None,
) -> RunResult:
    """Run a valued pair under the adaptive-f (virtual object) approach."""
    kernel, server, proxy = build_stack(
        (trace_a, trace_b),
        supports_history=True,
        want_history=True,
        latency=LatencyModel(),
    )
    coordinator = AdaptiveFCoordinator(
        proxy,
        (trace_a.object_id, trace_b.object_id),
        mutual_delta,
        bounds=bounds,
        parameters=parameters,
    )
    coordinator.setup(server, server)
    end = (
        horizon
        if horizon is not None
        else max(trace_a.end_time, trace_b.end_time)
    )
    kernel.run(until=end)
    return RunResult(
        kernel=kernel,
        server=server,
        proxy=proxy,
        traces={trace_a.object_id: trace_a, trace_b.object_id: trace_b},
        adaptive_f=coordinator,
    )


def run_mutual_value_partitioned(
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    mutual_delta: float,
    *,
    bounds: TTRBounds,
    parameters: PartitionParameters = PartitionParameters(),
    horizon: Optional[Seconds] = None,
) -> RunResult:
    """Run a valued pair under the partitioned-δ approach."""
    kernel, server, proxy = build_stack(
        (trace_a, trace_b),
        supports_history=True,
        want_history=True,
        latency=LatencyModel(),
    )
    coordinator = PartitionedMvCoordinator(
        proxy,
        (trace_a.object_id, trace_b.object_id),
        mutual_delta,
        bounds=bounds,
        parameters=parameters,
    )
    coordinator.setup(server, server)
    end = (
        horizon
        if horizon is not None
        else max(trace_a.end_time, trace_b.end_time)
    )
    kernel.run(until=end)
    return RunResult(
        kernel=kernel,
        server=server,
        proxy=proxy,
        traces={trace_a.object_id: trace_a, trace_b.object_id: trace_b},
        partitioned=coordinator,
    )


def run_mutual_value_group(
    traces: Sequence[UpdateTrace],
    mutual_delta: float,
    *,
    bounds: TTRBounds,
    parameters: PartitionParameters = PartitionParameters(),
    budget: GroupBudget = GroupBudget.PAIRWISE,
    horizon: Optional[Seconds] = None,
) -> RunResult:
    """Run an n-object valued group under partitioned-δ apportioning.

    Generalises :func:`run_mutual_value_partitioned` beyond pairs using
    :class:`PartitionedGroupMvCoordinator`; ``budget`` picks the
    pairwise or sum δ constraint (see :class:`GroupBudget`).
    """
    if len(traces) < 2:
        raise ValueError("a group run needs at least two traces")
    kernel, server, proxy = build_stack(
        traces,
        supports_history=True,
        want_history=True,
        latency=LatencyModel(),
    )
    members = tuple(trace.object_id for trace in traces)
    coordinator = PartitionedGroupMvCoordinator(
        proxy,
        members,
        mutual_delta,
        bounds=bounds,
        parameters=parameters,
        budget=budget,
    )
    coordinator.setup({member: server for member in members})
    end = horizon if horizon is not None else max(t.end_time for t in traces)
    kernel.run(until=end)
    return RunResult(
        kernel=kernel,
        server=server,
        proxy=proxy,
        traces={t.object_id: t for t in traces},
        partitioned_group=coordinator,
    )
