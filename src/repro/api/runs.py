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

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.api.executors import executor_for
from repro.consistency.base import PolicyFactory
from repro.consistency.mutual_temporal import (
    MutualTemporalCoordinator,
    MutualTemporalMode,
)
from repro.consistency.mutual_value import (
    AdaptiveFCoordinator,
    AdaptiveFParameters,
    GroupBudget,
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
#: The mutual-consistency coordinator a run attached (``None``: none).
C = TypeVar("C")


def _invoke(task: Callable[[], R]) -> R:
    """Call a zero-argument run-spec (module-level so workers can unpickle it)."""
    return task()


def run_many(
    tasks: Sequence[Callable[[], R]],
    *,
    workers: Optional[int] = None,
) -> List[R]:
    """Run independent zero-argument run-specs, results in input order.

    With ``workers`` > 1 each task executes in a worker process, so the
    task (and its return value) must pickle: use ``functools.partial``
    over a module-level function and return plain data (rows, series),
    not live simulation objects.
    """
    return executor_for(workers).map(_invoke, list(tasks))


@dataclass
class RunResult(Generic[C]):
    """Everything a finished simulation exposes for analysis.

    ``coordinator`` is whatever mutual-consistency coordinator the run
    function attached to the proxy — ``None`` for
    :func:`run_individual` and the config path.
    """

    kernel: Kernel
    server: OriginServer
    proxy: ProxyCache
    traces: Dict[ObjectId, UpdateTrace]
    coordinator: C

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

    Every topology — the single proxy or an arbitrary
    :class:`~repro.topology.tree.TopologyTree` — grows out of this same
    core.
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
) -> Tuple[Kernel, OriginServer, ProxyCache]:
    """Assemble the standard stack: kernel, fed origin, network, proxy.

    The one place the paper's single-proxy setting is wired together;
    every run function builds on it.  The proxy is the root (and only
    node) of a one-level :class:`~repro.topology.tree.TopologyTree`, so
    the single-proxy stack and the deep trees
    :func:`repro.api.builder.run_simulation` builds are the same layer.
    Objects are *not* registered — callers attach policies (and any
    coordinators) before running the kernel.  The link draws no jitter:
    a jittery :class:`LatencyModel` degrades to its fixed ``one_way``
    latency.
    """
    kernel, server = build_core(traces, supports_history=supports_history)
    tree = TopologyTree(
        kernel,
        server,
        (TreeLevel(fan_out=1, latency=latency),),
        want_history=want_history,
        node_namer=lambda _level, _index: "proxy",
    )
    return kernel, server, tree.root.proxy


def _finish_run(
    kernel: Kernel,
    server: OriginServer,
    proxy: ProxyCache,
    traces: Sequence[UpdateTrace],
    horizon: Optional[Seconds],
    coordinator: C,
) -> RunResult[C]:
    """The shared tail of every run function: run, then package.

    The run covers the longest trace window unless ``horizon`` says
    otherwise.
    """
    end = horizon if horizon is not None else max(t.end_time for t in traces)
    kernel.run(until=end)
    return RunResult(
        kernel=kernel,
        server=server,
        proxy=proxy,
        traces={t.object_id: t for t in traces},
        coordinator=coordinator,
    )


def run_individual(
    traces: Sequence[UpdateTrace],
    policy_factory: PolicyFactory,
    *,
    horizon: Optional[Seconds] = None,
    supports_history: bool = True,
    want_history: bool = True,
    latency: LatencyModel = LatencyModel(),
) -> RunResult[None]:
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
    return _finish_run(kernel, server, proxy, traces, horizon, None)


def run_mutual_temporal(
    traces: Sequence[UpdateTrace],
    policy_factory: PolicyFactory,
    mutual_delta: Seconds,
    mode: MutualTemporalMode,
    *,
    rate_ratio_threshold: float = 0.8,
    horizon: Optional[Seconds] = None,
    supports_history: bool = True,
    want_history: bool = True,
) -> RunResult[MutualTemporalCoordinator]:
    """Run one group of related objects under a Section 3.2 mutual mode.

    The traces' objects form a single δ-group (the paper's pair is a
    sequence of two; its definitions "can be generalized to n
    objects"), each under its own policy from ``policy_factory``.
    """
    if len(traces) < 2:
        raise ValueError("a mutual-consistency run needs at least two traces")
    kernel, server, proxy = build_stack(
        traces, supports_history=supports_history, want_history=want_history
    )
    groups = GroupRegistry()
    groups.create_group(
        "group", tuple(trace.object_id for trace in traces), mutual_delta
    )
    coordinator = MutualTemporalCoordinator(
        proxy,
        groups,
        mode=mode,
        rate_ratio_threshold=rate_ratio_threshold,
    )
    for trace in traces:
        proxy.register_object(
            trace.object_id, server, policy_factory(trace.object_id)
        )
    return _finish_run(kernel, server, proxy, traces, horizon, coordinator)


def run_mutual_value_adaptive(
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    mutual_delta: float,
    *,
    bounds: TTRBounds,
    parameters: AdaptiveFParameters = AdaptiveFParameters(),
    horizon: Optional[Seconds] = None,
) -> RunResult[AdaptiveFCoordinator]:
    """Run a valued pair under the adaptive-f (virtual object) approach."""
    traces = (trace_a, trace_b)
    kernel, server, proxy = build_stack(traces)
    coordinator = AdaptiveFCoordinator(
        proxy,
        (trace_a.object_id, trace_b.object_id),
        mutual_delta,
        bounds=bounds,
        parameters=parameters,
    )
    coordinator.setup(server, server)
    return _finish_run(kernel, server, proxy, traces, horizon, coordinator)


def run_mutual_value_partitioned(
    traces: Sequence[UpdateTrace],
    mutual_delta: float,
    *,
    bounds: TTRBounds,
    parameters: PartitionParameters = PartitionParameters(),
    budget: GroupBudget = GroupBudget.PAIRWISE,
    horizon: Optional[Seconds] = None,
) -> RunResult[PartitionedMvCoordinator]:
    """Run one valued group under the partitioned-δ approach.

    The traces' objects form a single group (the paper's pair is a
    sequence of two); ``budget`` picks the pairwise or sum δ constraint
    (see :class:`~repro.consistency.mutual_value.GroupBudget`).
    """
    if len(traces) < 2:
        raise ValueError("a group run needs at least two traces")
    kernel, server, proxy = build_stack(traces)
    members = tuple(trace.object_id for trace in traces)
    coordinator = PartitionedMvCoordinator(
        proxy,
        members,
        mutual_delta,
        bounds=bounds,
        parameters=parameters,
        budget=budget,
    )
    coordinator.setup({member: server for member in members})
    return _finish_run(kernel, server, proxy, traces, horizon, coordinator)
