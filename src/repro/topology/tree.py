"""The assembled proxy tree: nodes, wiring, registration, introspection.

A :class:`TopologyTree` is built from a sequence of
:class:`~repro.topology.levels.TreeLevel` specs against one origin:
level 0 holds ``fan_out₀`` nodes attached to the origin, and every node
at level i has ``fan_outᵢ₊₁`` children at level i+1 — so a chain is
``fan_out=1`` everywhere, one parent with N edge proxies is
``(1, N)``, and a CDN-style edge tree is ``(1, k, k)``.

Each node is a full :class:`~repro.proxy.proxy.ProxyCache` with its own
per-link :class:`~repro.httpsim.network.Network`; because proxies
satisfy the :class:`~repro.topology.protocols.Upstream` protocol, every
node polls its upstream with ordinary conditional GETs on its refresh
policy's TTR schedule.

Objects register root-first, level by level, so every initial fetch
finds its upstream already populated (with the synchronous zero-latency
network the fetch completes inline).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.consistency.base import RefreshPolicy
from repro.core.errors import UnknownObjectError
from repro.core.types import ObjectId, ObjectSnapshot, Seconds
from repro.httpsim.network import Network
from repro.proxy.cache import ObjectCache
from repro.proxy.proxy import ProxyCache
from repro.sim.kernel import Kernel
from repro.topology.levels import LevelPolicyFactory, TopologyError, TreeLevel
from repro.topology.protocols import Upstream

#: Names a node from its (level, index-within-level) position.
NodeNamer = Callable[[int, int], str]
#: Labels a node's upstream link for RNG-stream derivation.
LinkLabeler = Callable[[int, int], str]
#: Resolves a link label to the RNG jitter draws on that link use.
LinkRngFactory = Callable[[str], Optional[random.Random]]
#: Builds a node's cache from its (level, index); ``None`` entries fall
#: back to the proxy's default unbounded cache.
CacheFactory = Callable[[int, int], Optional[ObjectCache]]


def _default_namer(level: int, index: int) -> str:
    return f"L{level}.N{index}"


def _default_link_labeler(level: int, index: int) -> str:
    return f"network.L{level}.N{index}"


def _no_link_rng(_label: str) -> Optional[random.Random]:
    return None


def _holds_object(proxy: ProxyCache, object_id: ObjectId) -> bool:
    """Whether a proxy has the object registered *and* populated."""
    try:
        entry = proxy.entry_for(object_id)
    except UnknownObjectError:
        return False
    return entry.snapshot is not None


class _InstallOnFirstPoll:
    """One-shot observer: run ``install`` when the upstream proxy first
    completes a poll for the object (its cache is populated by then, so
    the downstream node's initial fetch cannot 404)."""

    __slots__ = ("_proxy", "_object_id", "_install")

    def __init__(
        self,
        proxy: ProxyCache,
        object_id: ObjectId,
        install: Callable[[], None],
    ) -> None:
        self._proxy = proxy
        self._object_id = object_id
        self._install = install
        proxy.add_observer(self)

    def on_poll_complete(
        self, object_id: ObjectId, now: Seconds, modified: bool,
        snapshot: ObjectSnapshot, first_unseen: Optional[Seconds],
        updates_since: Optional[int],
    ) -> None:
        if object_id != self._object_id:
            return
        self._proxy.remove_observer(self)
        self._install()


class TopologyNode:
    """One proxy in the tree, with its position and wiring."""

    __slots__ = ("proxy", "level", "index", "upstream", "parent", "children")

    def __init__(
        self,
        proxy: ProxyCache,
        level: int,
        index: int,
        upstream: Upstream,
        parent: Optional["TopologyNode"],
    ) -> None:
        self.proxy = proxy
        self.level = level
        self.index = index
        #: What this node polls (the origin, or the parent's proxy).
        self.upstream = upstream
        self.parent = parent
        self.children: List["TopologyNode"] = []

    @property
    def name(self) -> str:
        return self.proxy.name

    @property
    def is_edge(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        return (
            f"TopologyNode({self.name!r}, level={self.level}, "
            f"children={len(self.children)})"
        )


class TopologyTree:
    """An arbitrary proxy tree in which every node polls its upstream.

    Args:
        kernel: Shared simulation kernel.
        origin: The origin server every level-0 node attaches to.
        levels: Per-level structure, level 0 first.
        want_history: Whether node polls request the Section 5.1
            modification-history extension.
        link_rng: Resolves a link label to the RNG its jitter draws use
            (``None`` degrades jittery latency to its fixed one-way
            value).  Labels come from ``link_labeler``.
        node_namer: Names nodes from (level, index); defaults to
            ``L{level}.N{index}``.  The assembly layer overrides this to
            keep historical names (``proxy``, ``edge-{i}``) stable.
        link_labeler: Labels upstream links from (level, index) for RNG
            derivation; defaults to ``network.L{level}.N{index}``.
        cache_factory: Builds each node's
            :class:`~repro.proxy.cache.ObjectCache` from (level, index)
            — bounded edge caches in an otherwise unbounded tree, say.
            ``None`` (default, and a legal per-node return value) means
            an unbounded cache.

    Example:
        >>> from repro.core.types import ObjectId
        >>> from repro.server.origin import OriginServer
        >>> from repro.sim.kernel import Kernel
        >>> from repro.topology.levels import TreeLevel
        >>> from repro.consistency.base import FixedTTRPolicy
        >>> kernel = Kernel()
        >>> origin = OriginServer()
        >>> _ = origin.create_object(ObjectId("x"), created_at=0.0)
        >>> tree = TopologyTree(
        ...     kernel, origin, [TreeLevel(fan_out=1), TreeLevel(fan_out=4)]
        ... )
        >>> _ = tree.register_object(
        ...     ObjectId("x"), lambda level, oid: FixedTTRPolicy(ttr=60.0)
        ... )
        >>> tree.node_count
        5
    """

    def __init__(
        self,
        kernel: Kernel,
        origin: Upstream,
        levels: Sequence[TreeLevel],
        *,
        want_history: bool = True,
        link_rng: LinkRngFactory = _no_link_rng,
        node_namer: NodeNamer = _default_namer,
        link_labeler: LinkLabeler = _default_link_labeler,
        cache_factory: Optional[CacheFactory] = None,
    ) -> None:
        if not levels:
            raise TopologyError("a topology tree needs at least one level")
        self._kernel = kernel
        self._origin = origin
        self._levels: Tuple[TreeLevel, ...] = tuple(levels)
        self._by_level: List[List[TopologyNode]] = []

        parents: List[Optional[TopologyNode]] = [None]
        for level_number, level in enumerate(self._levels):
            row: List[TopologyNode] = []
            for parent in parents:
                upstream: Upstream = (
                    origin if parent is None else parent.proxy
                )
                for _ in range(level.fan_out):
                    index = len(row)
                    network = Network(
                        kernel,
                        level.latency,
                        rng=link_rng(link_labeler(level_number, index)),
                    )
                    node = TopologyNode(
                        ProxyCache(
                            kernel,
                            network,
                            cache=(
                                cache_factory(level_number, index)
                                if cache_factory is not None
                                else None
                            ),
                            want_history=want_history,
                            name=node_namer(level_number, index),
                        ),
                        level_number,
                        index,
                        upstream,
                        parent,
                    )
                    if parent is not None:
                        parent.children.append(node)
                    row.append(node)
            self._by_level.append(row)
            parents = list(row)
        # register_object returns policies keyed by node name, so a
        # colliding namer would silently drop entries — fail instead.
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            duplicates = sorted(
                {name for name in names if names.count(name) > 1}
            )
            raise TopologyError(
                f"node_namer produced duplicate node names: {duplicates}"
            )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> Kernel:
        return self._kernel

    @property
    def origin(self) -> Upstream:
        return self._origin

    @property
    def levels(self) -> Tuple[TreeLevel, ...]:
        return self._levels

    @property
    def depth(self) -> int:
        return len(self._levels)

    @property
    def node_count(self) -> int:
        return sum(len(row) for row in self._by_level)

    @property
    def nodes(self) -> Tuple[TopologyNode, ...]:
        """Every node, level by level, index order within each level."""
        return tuple(node for row in self._by_level for node in row)

    def nodes_at(self, level: int) -> Tuple[TopologyNode, ...]:
        if not 0 <= level < self.depth:
            raise TopologyError(
                f"level must be in [0, {self.depth}), got {level}"
            )
        return tuple(self._by_level[level])

    @property
    def edge_nodes(self) -> Tuple[TopologyNode, ...]:
        """The deepest level — the proxies clients would talk to."""
        return tuple(self._by_level[-1])

    @property
    def root(self) -> TopologyNode:
        """The single level-0 node (error when level 0 fans out wider)."""
        row = self._by_level[0]
        if len(row) != 1:
            raise TopologyError(
                f"tree has {len(row)} level-0 nodes; use nodes_at(0)"
            )
        return row[0]

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_object(
        self,
        object_id: ObjectId,
        policy_factory: LevelPolicyFactory,
        *,
        node_filter: Optional[Callable[[int, int], bool]] = None,
    ) -> Dict[str, RefreshPolicy]:
        """Register an object at every node, root-first.

        ``node_filter(level, index)`` restricts registration to a
        subset of nodes — the sharded executor registers only a shard's
        cone (its boundary subtrees plus all their ancestors; see
        :mod:`repro.topology.sharding`).  The filter must be
        ancestor-closed: a registered node's upstream proxy must itself
        be registered, or its initial fetch 404s against an empty
        parent cache.  Filtered-out nodes stay constructed but idle.

        Every node gets its own ``policy_factory(level, object_id)``.

        On a zero-latency link registration (and its initial fetch)
        completes inline, parent before child.  Below a *latent* link
        the parent's initial fetch is still in flight when the child
        registers, so the child's installation is deferred until the
        parent's first poll for the object completes (a one-shot poll
        observer) — racing ahead would 404 against the unpopulated
        parent.  The kernel must therefore
        :meth:`~repro.sim.kernel.Kernel.run` for those deferred
        installations to land; the worst case is one upstream round
        trip per level (:func:`~repro.topology.levels.warm_up_bound`).

        Returns:
            The policy instance installed at each node, by node name.
        """
        policies: Dict[str, RefreshPolicy] = {}
        for level_number, row in enumerate(self._by_level):
            for node in row:
                if node_filter is not None and not node_filter(
                    level_number, node.index
                ):
                    continue
                policy = policy_factory(level_number, object_id)
                self._register_node(node, object_id, policy)
                policies[node.name] = policy
        return policies

    def _register_node(
        self, node: TopologyNode, object_id: ObjectId, policy: RefreshPolicy
    ) -> None:
        """Install one node's policy now, or once its upstream is warm."""
        install = partial(
            node.proxy.register_object, object_id, node.upstream, policy
        )
        parent = node.parent
        if parent is None or _holds_object(parent.proxy, object_id):
            # Zero-latency links land here: the parent's initial fetch
            # completed inline during its own registration above.
            install()
        else:
            _InstallOnFirstPoll(parent.proxy, object_id, install)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def polls_per_level(
        self, object_id: Optional[ObjectId] = None
    ) -> List[int]:
        """Summed poll counts by level (for one object, or totals)."""
        if object_id is None:
            return [
                sum(node.proxy.counters.get("polls") for node in row)
                for row in self._by_level
            ]
        return [
            sum(
                node.proxy.entry_for(object_id).poll_count for node in row
            )
            for row in self._by_level
        ]

    def total_polls(self) -> int:
        """Polls issued by every node in the tree."""
        return sum(self.polls_per_level())

    def origin_request_count(self) -> int:
        """Requests the origin actually received (level-0 traffic)."""
        counters = getattr(self._origin, "counters", None)
        if counters is None:
            raise TopologyError(
                f"origin {self._origin.name!r} exposes no request counters"
            )
        return cast(int, counters.get("requests"))

    def __repr__(self) -> str:
        shape = "x".join(str(level.fan_out) for level in self._levels)
        return (
            f"TopologyTree(depth={self.depth}, shape={shape}, "
            f"nodes={self.node_count}, origin={self._origin.name!r})"
        )
