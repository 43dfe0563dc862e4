"""Sharded execution of topology trees across worker processes.

A :class:`~repro.topology.tree.TopologyTree` run decomposes cleanly at
a subtree boundary: child polls never mutate their parent's cache
(:meth:`~repro.proxy.proxy.ProxyCache.respond` reads the cache's
entries without marking recency), so a subtree's observable history
depends only on the origin's update schedule and the subtree's own
ancestors — never on a sibling subtree.  Each shard therefore simulates its slice of some
*boundary level* plus everything below it, with private replicas of the
ancestor levels above; replicas poll identically in every shard (same
seeds, same origin), so each ancestor node is *scored* by exactly one
shard — the shard owning its first boundary-level descendant — and the
merged result table is byte-identical to the serial run.

The pieces:

* :func:`plan_shards` — pick the boundary level (the shallowest level
  at least ``shards`` wide) and balanced contiguous index ranges.
* :class:`ShardSelection` — one shard's node sets: ``registers`` (its
  cone: owned subtrees plus ancestor replicas) and ``owns`` (the nodes
  whose result rows it reports).
* :func:`run_sharded` — execute shard 0 in-process (its live tree
  backs the returned outcome) and the rest as picklable
  ``functools.partial`` tasks through :func:`repro.api.runs.run_many`
  — the same process-pool seam parameter sweeps use — then merge the
  keyed rows deterministically.

Sharding composes with ``fidelity="fastforward"``; both knobs live on
:class:`~repro.api.config.SimulationConfig` (``shards``/``fidelity``)
and route through :func:`repro.api.builder.run_simulation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.api.config import SimulationConfig, SimulationConfigError

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycle
    from repro.api.builder import (
        KeyedRows,
        SimulationOutcome,
        TreeInstrument,
    )

#: A node address: ``(level, index)`` within the tree's level grid.
NodeKey = Tuple[int, int]


@dataclass(frozen=True)
class ShardSelection:
    """One shard's view of the tree.

    Attributes:
        shard: This shard's number in ``[0, shards)``.
        registers: Nodes that register objects (and therefore poll):
            the shard's owned subtrees plus replicas of every ancestor
            above its boundary slice.
        owns: The subset of ``registers`` whose result rows this shard
            reports.  Ancestor replicas polled by several shards are
            owned by exactly one, so merged rows never duplicate.
    """

    shard: int
    registers: FrozenSet[NodeKey]
    owns: FrozenSet[NodeKey]

    def node_filter(self, level: int, index: int) -> bool:
        """The registration predicate handed to ``register_object``."""
        return (level, index) in self.registers


@dataclass(frozen=True)
class ShardPlan:
    """How a tree splits: boundary level plus per-shard index ranges.

    Attributes:
        fan_outs: Per-level fan-outs, root level first.
        shards: Number of shards.
        boundary_level: The shallowest level at least ``shards`` wide;
            shards own contiguous slices of this level's nodes.
        ranges: Per-shard ``(start, stop)`` half-open index ranges at
            the boundary level, contiguous and covering the level.
    """

    fan_outs: Tuple[int, ...]
    shards: int
    boundary_level: int
    ranges: Tuple[Tuple[int, int], ...]

    def selection(self, shard: int) -> ShardSelection:
        """The node sets shard ``shard`` registers and owns."""
        if not 0 <= shard < self.shards:
            raise ValueError(
                f"shard must be in [0, {self.shards}), got {shard}"
            )
        start, stop = self.ranges[shard]
        registers: Set[NodeKey] = set()
        owns: Set[NodeKey] = set()
        boundary = self.boundary_level
        # The owned cone: the boundary slice and every descendant level.
        multiplier = 1
        for level in range(boundary, len(self.fan_outs)):
            if level > boundary:
                multiplier *= self.fan_outs[level]
            for index in range(start * multiplier, stop * multiplier):
                registers.add((level, index))
                owns.add((level, index))
        # Ancestor replicas: every shard polls them (identically), but
        # only the shard holding an ancestor's first boundary-level
        # descendant reports its rows.
        divisor = 1
        for level in range(boundary - 1, -1, -1):
            divisor *= self.fan_outs[level + 1]
            for ancestor in range(start // divisor, (stop - 1) // divisor + 1):
                registers.add((level, ancestor))
                if start <= ancestor * divisor < stop:
                    owns.add((level, ancestor))
        return ShardSelection(
            shard=shard,
            registers=frozenset(registers),
            owns=frozenset(owns),
        )


def plan_shards(fan_outs: Sequence[int], shards: int) -> ShardPlan:
    """Partition a tree of ``fan_outs`` into ``shards`` balanced slices.

    The boundary is the shallowest level with at least ``shards``
    nodes; slices are contiguous and within one node of equal size.
    Raises :class:`~repro.api.config.SimulationConfigError` when no
    level is wide enough.
    """
    if shards < 1:
        raise SimulationConfigError(f"shards must be >= 1, got {shards}")
    fan_outs = tuple(fan_outs)
    if not fan_outs:
        raise SimulationConfigError("cannot shard a tree with no levels")
    width = 1
    boundary = None
    for level, fan_out in enumerate(fan_outs):
        width *= fan_out
        if width >= shards:
            boundary = level
            break
    if boundary is None:
        raise SimulationConfigError(
            f"cannot split {width} deepest-level node(s) into "
            f"{shards} shards; reduce shards or widen the tree"
        )
    base, remainder = divmod(width, shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for shard in range(shards):
        stop = start + base + (1 if shard < remainder else 0)
        ranges.append((start, stop))
        start = stop
    return ShardPlan(
        fan_outs=fan_outs,
        shards=shards,
        boundary_level=boundary,
        ranges=tuple(ranges),
    )


def _plan_for(config: SimulationConfig) -> ShardPlan:
    if config.topology.kind != "tree":
        raise SimulationConfigError(
            f"sharding requires the 'tree' topology, "
            f"got {config.topology.kind!r}"
        )
    fan_outs = tuple(
        level.fan_out for level in config.topology.levels
    )
    return plan_shards(fan_outs, config.shards)


def _execute_shard(
    config: SimulationConfig,
    shard: int,
    instrument: Optional["TreeInstrument"] = None,
) -> "KeyedRows":
    """Run one shard and return its keyed result rows.

    Module-level (and invoked via ``functools.partial``) so worker
    processes can unpickle it; the live tree stays in the worker and
    only plain row data crosses back.
    """
    from repro.api.builder import _run_tree_config

    selection = _plan_for(config).selection(shard)
    _outcome, keyed = _run_tree_config(
        config, selection=selection, instrument=instrument
    )
    return keyed


def run_sharded(
    config: SimulationConfig,
    *,
    workers: Optional[int] = None,
    instrument: Optional["TreeInstrument"] = None,
) -> "SimulationOutcome":
    """Execute a ``tree`` config split across ``config.shards`` shards.

    The merged result table is byte-identical to the serial unsharded
    run: shards return disjoint row sets keyed by ``(level, index)``
    and the merge sorts on that key, reproducing the serial node
    traversal order.  Shard 0 runs in-process, so the returned
    outcome's ``run``/``tree``/``edges`` expose live objects for shard
    0's partition (ancestor replicas included); other shards exist only
    as their reported rows.

    ``workers`` sizes the process pool for shards 1..N-1 (``None``:
    serial in-process execution — still byte-identical, just slower).
    """
    from repro.api.builder import (
        RESULT_COLUMNS,
        SimulationOutcome,
        _run_tree_config,
    )
    from repro.api.results import ColumnarBuilder
    from repro.api.runs import run_many

    plan = _plan_for(config)
    if instrument is not None and config.cache.bounded and plan.boundary_level:
        # A client miss fetches through the ancestor replicas, and on a
        # bounded cache that fetch evicts: each replica's cache would
        # then depend on every shard's client traffic.
        raise SimulationConfigError(
            "instrument hooks on a sharded tree need an unbounded cache "
            "(cache.capacity is set): client misses fetch through the "
            "ancestors shared between shards"
        )
    tasks = [
        partial(_execute_shard, config, shard, instrument)
        for shard in range(1, plan.shards)
    ]
    remote: List["KeyedRows"] = (
        run_many(tasks, workers=workers) if tasks else []
    )
    outcome, keyed = _run_tree_config(
        config, selection=plan.selection(0), instrument=instrument
    )
    merged = list(keyed)
    for shard_batches in remote:
        merged.extend(shard_batches)
    merged.sort(key=lambda item: item[0])
    # Shards ship columnar batches (see ``KeyedRows``); rows
    # materialize exactly once, from the merged columns.
    assembly = ColumnarBuilder(RESULT_COLUMNS)
    for _key, batch in merged:
        assembly.extend(batch)
    return SimulationOutcome(
        config=config,
        run=outcome.run,
        results=assembly.build(),
        edges=outcome.edges,
        tree=outcome.tree,
    )
