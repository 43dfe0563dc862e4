"""Fluent simulation construction and the config execution path.

:class:`SimulationBuilder` assembles a typed
:class:`~repro.api.config.SimulationConfig` step by step::

    outcome = (
        SimulationBuilder()
        .workload("news", "cnn_fn", "nyt_ap")
        .policy("limd", delta=600.0, ttr_max=3600.0)
        .topology("single")
        .seed(7)
        .fidelity_delta(600.0)
        .run()
    )
    print(outcome.results.to_csv())

:func:`run_simulation` is the one execution path behind the builder,
the ``repro run --config`` CLI, and any external caller holding a
config: resolve the workload through the source registry, the policy
through the consistency registry, grow a
:class:`~repro.topology.tree.TopologyTree` out of
:func:`repro.api.runs.build_core`, run to the horizon, and report a
:class:`~repro.api.results.ResultSet` with a declared column schema.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycle
    from repro.groups.registry import GroupRegistry
    from repro.sim.kernel import Kernel
    from repro.topology.sharding import ShardSelection

from repro.api.config import (
    CacheConfig,
    GroupConfig,
    GroupsConfig,
    LevelConfig,
    NetworkConfig,
    PolicyConfig,
    SimulationConfig,
    SimulationConfigError,
    TopologyConfig,
    WorkloadConfig,
)
from repro.api.jsonable import thaw
from repro.api.results import ColumnarBuilder, ResultSet
from repro.api.runs import RunResult, build_core
from repro.api.workloads import resolve_workload
from repro.consistency.base import PolicyFactory, RefreshPolicy
from repro.core.errors import PolicyConfigurationError
from repro.core.rng import derive_seed
from repro.core.types import ObjectId
from repro.httpsim.network import LatencyModel
from repro.metrics.collector import (
    GROUP_ROW_COLUMNS,
    OBJECT_ROW_COLUMNS,
    append_group_rows,
    append_object_rows,
)
from repro.proxy.cache import ObjectCache
from repro.proxy.proxy import ProxyCache
from repro.topology.levels import TopologyError, TreeLevel, warm_up_bound
from repro.topology.tree import TopologyTree
from repro.traces.model import UpdateTrace

#: The declared schema every simulation outcome reports, per (node,
#: object) pair.  Fidelity cells are ``None`` unless the config sets
#: ``fidelity_delta_s``; the eviction columns are all zero for
#: unbounded caches (the default) and ``staleness_violations`` counts
#: absence windows that voided the policy's Δ bound (see
#: :func:`repro.metrics.collector.collect_eviction_impact`).
#:
#: Configs with a non-empty ``groups`` section additionally report one
#: row per (node, group) carrying the ``group*`` columns — scored by
#: :func:`repro.metrics.group.group_temporal_fidelity` against each
#: group's ``mutual_delta`` — while per-object rows leave those cells
#: unset (and group rows leave the per-object cells unset).
#:
#: Assembled from the collector's two row shapes — the per-object cells
#: first, then the ``group*`` cells (``node`` is shared).
RESULT_COLUMNS: Tuple[str, ...] = OBJECT_ROW_COLUMNS + GROUP_ROW_COLUMNS[1:]

#: A hook run on the live tree after registration, before the run — the
#: seam load drivers (e.g. the scale benchmark's client pumps) use to
#: attach extra event sources.  Sharded execution pickles the hook to
#: worker processes, so it must be a module-level function or a
#: ``functools.partial`` over one.
TreeInstrument = Callable[[TopologyTree], None]


@dataclass
class SimulationOutcome:
    """A finished config-driven simulation.

    Attributes:
        config: The exact configuration that ran.
        run: Live simulation objects for deep inspection (the primary
            proxy: the single proxy or the tree's first level-0
            node).
        results: Per-(node, object) metric rows under the declared
            :data:`RESULT_COLUMNS` schema.
        edges: Edge proxies (empty for the ``single`` topology and for
            one-level trees).
        tree: The live :class:`~repro.topology.tree.TopologyTree` for
            ``tree`` topologies, else ``None``.
    """

    config: SimulationConfig
    run: RunResult[None]
    results: ResultSet
    edges: List[ProxyCache]
    tree: Optional[TopologyTree] = None


def _policy_factory(policy: PolicyConfig) -> PolicyFactory:
    # Imported lazily so building the api package does not drag in
    # every consistency policy module.
    from repro.consistency.registry import build_policy_factory

    try:
        factory = build_policy_factory(
            policy.name,
            **{key: thaw(value) for key, value in policy.params.items()},
        )
        # Some params are only checked when a policy is built; build
        # one now so those fail here too, naming the policy.
        factory(ObjectId(policy.name))
    except (TypeError, ValueError, PolicyConfigurationError) as exc:
        # Unknown names and JSON-legal but wrong-shaped or out-of-range
        # params surface as the config error they are, not a raw
        # traceback.
        raise SimulationConfigError(
            f"invalid params for policy {policy.name!r} "
            f"({dict(policy.params)}): {exc}"
        ) from None
    return factory


def _resolve_groups(
    config: SimulationConfig, traces: Sequence[UpdateTrace]
) -> Optional["GroupRegistry"]:
    """Materialise the config's groups section into one registry.

    Explicit groups come first, then one ``component-<i>`` group per
    connected component of the dependency edges.  Members must name
    workload objects; id collisions and malformed groups surface as
    config errors before any simulation state exists.
    """
    if not config.groups.enabled:
        return None
    from repro.groups.dependency import DependencyGraph
    from repro.groups.registry import GroupRegistry, groups_from_components

    known = {str(trace.object_id) for trace in traces}
    registry = GroupRegistry()
    for group in config.groups.groups:
        missing = sorted(set(group.members) - known)
        if missing:
            raise SimulationConfigError(
                f"groups: group {group.group_id!r} names member(s) "
                f"{missing} not in workload.objects"
            )
        try:
            registry.create_group(
                group.group_id,
                tuple(ObjectId(member) for member in group.members),
                group.mutual_delta,
            )
        except ValueError as exc:
            raise SimulationConfigError(f"groups: {exc}") from None
    if config.groups.edges:
        graph = DependencyGraph()
        for a, b in config.groups.edges:
            missing = sorted({a, b} - known)
            if missing:
                raise SimulationConfigError(
                    f"groups: edge [{a!r}, {b!r}] names object(s) "
                    f"{missing} not in workload.objects"
                )
            graph.relate(ObjectId(a), ObjectId(b))
        for spec in groups_from_components(
            graph, config.groups.component_delta
        ):
            try:
                registry.add_group(spec)
            except ValueError as exc:
                raise SimulationConfigError(f"groups: {exc}") from None
    return registry


def _attach_coordinators(
    config: SimulationConfig,
    registry: Optional["GroupRegistry"],
    proxies: Sequence[ProxyCache],
) -> None:
    """One mutual-temporal coordinator per proxy node, sharing the registry.

    Attached before object registration (like
    :func:`repro.api.runs.run_mutual_temporal`) so initial fetches are
    observed; partners not yet registered are suppressed by the
    coordinator's own "unregistered" guard.
    """
    if registry is None:
        return
    from repro.consistency.mutual_temporal import (
        make_mutual_temporal_coordinator,
    )

    for proxy in proxies:
        make_mutual_temporal_coordinator(
            proxy,
            registry,
            config.groups.mode,
            rate_ratio_threshold=config.groups.rate_ratio_threshold,
        )


def _latency_of(network: NetworkConfig) -> LatencyModel:
    return LatencyModel(
        one_way=network.one_way_latency_s, jitter=network.jitter_s
    )


def _cache_factory(
    cache: CacheConfig,
) -> Optional[Callable[[int, int], Optional[ObjectCache]]]:
    """Per-node LRU cache builder for bounded configs (None when unbounded)."""
    capacity = cache.capacity
    if capacity is None:
        return None

    def build(_level: int, _index: int) -> ObjectCache:
        return ObjectCache(capacity=capacity)

    return build


def _with_ttl_classes(
    factory: PolicyFactory, cache: CacheConfig
) -> PolicyFactory:
    """Overlay per-class static-TTL policies on the main policy factory.

    Objects resolving to a declared TTL class (or catching the default
    TTL) run ``static_ttl`` with that TTL; everything else keeps the
    simulation's main policy.  An object absent from
    ``cache.object_classes`` is its own class, so TTL tables can key
    directly by object.  The lookup never raises: an undeclared class
    answers with ``cache.default_ttl_s`` (the table discipline of ops
    TTL caches); :class:`CacheConfig` has already validated both.
    """
    if not cache.has_ttl_classes:
        return factory
    from repro.consistency.ttl import static_ttl_policy_factory

    def build(object_id: ObjectId) -> RefreshPolicy:
        key = str(object_id)
        ttl = cache.ttl_classes.get(
            cache.object_classes.get(key, key), cache.default_ttl_s
        )
        if ttl is None:
            return factory(object_id)
        return static_ttl_policy_factory(ttl)(object_id)

    return build


def _resolve_horizon(
    config: SimulationConfig,
    traces: Sequence[UpdateTrace],
    levels: Sequence[TreeLevel],
) -> float:
    """The run's end time, checked against the topology's warm-up.

    Below latent links a level only registers once its upstream warmed
    up (see ``TopologyTree.register_object``); a horizon inside that
    warm-up would leave nodes unregistered and their result rows
    impossible, so such configs are rejected up front.
    """
    horizon = (
        config.horizon_s
        if config.horizon_s is not None
        else max(trace.end_time for trace in traces)
    )
    warm_up = warm_up_bound(levels)
    if horizon < warm_up:
        raise SimulationConfigError(
            f"horizon_s ({horizon}) is shorter than the topology's "
            f"registration warm-up bound ({warm_up}): levels below a "
            "latent link only register after one upstream round trip "
            "per level"
        )
    return horizon


def _latent(network: NetworkConfig) -> bool:
    return network.one_way_latency_s != 0 or network.jitter_s != 0


def _check_latent_links(
    config: SimulationConfig, instrument: Optional[TreeInstrument]
) -> None:
    """Reject, up front, a node that must answer over a latent link
    within one call.

    A miss is answered by fetching through the node's own upstream link
    within the same call: an edge serving an instrument's client
    request, or a bounded cache's parent serving a child's poll.  Over a
    latent link that answer arrives later, and the run would die mid-way
    on an empty entry.  So the edge level needs a synchronous link
    whenever an ``instrument`` is given, whatever the cache size; and
    with ``cache.capacity`` set, so does every level above the edge.
    An ``instrument`` needs every level above the edge synchronous too:
    below a latent link a node registers its objects only after an
    upstream round trip, so at instrument time the edges hold nothing
    to serve and no client would ever reach them.
    """
    if config.topology.kind != "tree":
        return
    levels = config.topology.levels
    latent = [
        _latent(level.network if level.network is not None else config.network)
        for level in levels
    ]
    if config.cache.capacity is not None:
        answering = len(levels) if instrument is not None else len(levels) - 1
        for index in range(answering):
            if latent[index]:
                served = (
                    f"level {index + 1}'s polls"
                    if index + 1 < len(levels)
                    else "client requests"
                )
                raise SimulationConfigError(
                    f"cache.capacity needs a synchronous link at level {index}: "
                    f"its bounded caches must answer {served} within one call, "
                    "so the level's one_way_latency_s and jitter_s must be 0"
                )
    if instrument is None or not any(latent):
        return
    index = latent.index(True)
    if index == len(levels) - 1:
        raise SimulationConfigError(
            "an instrument needs a synchronous link at the edge level "
            f"{index}: its client requests must be answered "
            "within one call, so the level's one_way_latency_s and "
            "jitter_s must be 0"
        )
    raise SimulationConfigError(
        "an instrument needs a synchronous link at every level, not only "
        f"the edge: below level {index}'s latent link the edges register "
        "their objects only after an upstream round trip and would serve "
        "no client, so the level's one_way_latency_s and jitter_s must be 0"
    )


def _check_fastforward(config: SimulationConfig) -> None:
    """Reject fast-forward configs with latent links up front.

    The analytic engine requires polls to complete inline (see
    :mod:`repro.sim.fastforward`); a latent link would surface later as
    a :class:`~repro.core.errors.SimulationError` mid-build, so the
    config error is raised here before any simulation state exists.
    """
    if config.fidelity != "fastforward":
        return
    if config.topology.kind == "tree":
        bad = any(
            _latent(
                level.network
                if level.network is not None
                else config.network
            )
            for level in config.topology.levels
        )
    else:
        bad = _latent(config.network)
    if bad:
        raise SimulationConfigError(
            'fidelity="fastforward" requires synchronous links: every '
            "level must have zero one-way latency and zero jitter"
        )


def _run_to_horizon(
    config: SimulationConfig,
    kernel: "Kernel",
    tree: TopologyTree,
    horizon: float,
) -> None:
    """Advance the built simulation to its horizon.

    ``fidelity="exact"`` steps the kernel event by event;
    ``"fastforward"`` routes through the analytic engine, which
    produces byte-identical observable histories (see
    :mod:`repro.sim.fastforward` for the two documented exceptions).
    """
    if config.fidelity == "fastforward":
        from repro.sim.fastforward import FastForwardEngine

        engine = FastForwardEngine(
            kernel, [node.proxy for node in tree.nodes]
        )
        try:
            engine.run(horizon)
        finally:
            engine.close()
    else:
        kernel.run(until=horizon)


#: Columnar result-row batches keyed by their node's ``(level, index)``
#: — the sort key sharded execution merges on.  Batches carry only the
#: :data:`~repro.metrics.collector.OBJECT_ROW_COLUMNS` subset (smaller
#: to pickle across the shard boundary); the merged assembly pads the
#: ``group*`` columns when materializing under :data:`RESULT_COLUMNS`.
KeyedRows = List[Tuple[Tuple[int, int], ColumnarBuilder]]


def _keyed_tree_rows(
    tree: TopologyTree,
    traces: Sequence[UpdateTrace],
    delta: Optional[float],
    horizon: float,
    owns: Optional["frozenset[Tuple[int, int]]"],
) -> KeyedRows:
    """Result-row batches per tree node, keyed by ``(level, index)``.

    The key is the merge key for sharded execution: shards return
    disjoint keyed batch lists and the merged table sorts by key, which
    reproduces the serial ``tree.nodes`` traversal order exactly.
    ``owns`` restricts collection to a shard's owned nodes (a node
    registered only as another shard's ancestor replica must not be
    scored twice).
    """
    keyed: KeyedRows = []
    for node in tree.nodes:
        key = (node.level, node.index)
        if owns is not None and key not in owns:
            continue
        batch = ColumnarBuilder(OBJECT_ROW_COLUMNS)
        append_object_rows(
            batch.row_writer(OBJECT_ROW_COLUMNS),
            node.name,
            node.proxy,
            traces,
            delta,
            horizon=horizon,
        )
        keyed.append((key, batch))
    return keyed


def _run_tree(
    config: SimulationConfig,
    traces: Sequence[UpdateTrace],
    policy_factory: PolicyFactory,
    *,
    selection: Optional["ShardSelection"] = None,
    instrument: Optional[TreeInstrument] = None,
) -> Tuple[SimulationOutcome, KeyedRows]:
    """The one assembly path: a TopologyTree, rows per node.

    Returns the outcome plus its rows keyed by ``(level, index)`` —
    the merge key sharded execution sorts on.  ``selection`` (sharded
    execution only) restricts object registration to the shard's cone
    and row collection to its owned nodes; ``instrument`` runs on the
    live tree after registration, before the clock starts.
    """
    default_latency = _latency_of(config.network)
    kind = config.topology.kind
    level_configs: Sequence[LevelConfig] = config.topology.levels
    naming: Dict[str, Callable[[int, int], str]] = {}
    if kind != "tree":
        # single is the one-node tree, under its historical node name
        # and RNG link label.
        level_configs = (LevelConfig(),)
        naming = {
            "node_namer": lambda _level, _index: "proxy",
            "link_labeler": lambda _level, _index: "network",
        }

    levels = tuple(
        TreeLevel(
            fan_out=level.fan_out,
            latency=(
                _latency_of(level.network)
                if level.network is not None
                else default_latency
            ),
        )
        for level in level_configs
    )
    level_factories = [
        policy_factory
        if level.policy is None
        else _policy_factory(level.policy)
        for level in level_configs
    ]

    def link_rng(label: str) -> random.Random:
        # One seeded stream per link; links with zero jitter simply
        # never consult it, so determinism is label-independent there.
        return random.Random(derive_seed(config.seed, label))

    kernel, server = build_core(
        traces, supports_history=config.supports_history
    )
    try:
        tree = TopologyTree(
            kernel,
            server,
            levels,
            want_history=config.want_history,
            link_rng=link_rng,
            cache_factory=_cache_factory(config.cache),
            **naming,
        )
    except TopologyError as exc:
        raise SimulationConfigError(str(exc)) from None

    def level_policy(level: int, object_id: ObjectId) -> RefreshPolicy:
        return level_factories[level](object_id)

    group_registry = _resolve_groups(config, traces)
    _attach_coordinators(
        config, group_registry, [node.proxy for node in tree.nodes]
    )
    node_filter = selection.node_filter if selection is not None else None
    for trace in traces:
        tree.register_object(
            trace.object_id, level_policy, node_filter=node_filter
        )
    if instrument is not None:
        instrument(tree)

    horizon = _resolve_horizon(config, traces, levels)
    _run_to_horizon(config, kernel, tree, horizon)

    owns = selection.owns if selection is not None else None
    keyed = _keyed_tree_rows(
        tree, traces, config.fidelity_delta_s, horizon, owns
    )
    assembly = ColumnarBuilder(RESULT_COLUMNS)
    for _key, batch in keyed:
        assembly.extend(batch)
    if group_registry is not None:
        write_group = assembly.row_writer(GROUP_ROW_COLUMNS)
        traces_by_id = {trace.object_id: trace for trace in traces}
        for node in tree.nodes:
            append_group_rows(
                write_group,
                node.name,
                node.proxy,
                group_registry,
                traces_by_id,
                horizon,
            )
    edges = (
        [node.proxy for node in tree.edge_nodes] if tree.depth > 1 else []
    )
    outcome = SimulationOutcome(
        config=config,
        run=RunResult(
            kernel=kernel,
            server=server,
            proxy=tree.nodes_at(0)[0].proxy,
            traces={trace.object_id: trace for trace in traces},
            coordinator=None,
        ),
        results=assembly.build(),
        edges=edges,
        tree=tree if kind == "tree" else None,
    )
    return outcome, keyed


def _run_tree_config(
    config: SimulationConfig,
    *,
    selection: Optional["ShardSelection"] = None,
    instrument: Optional[TreeInstrument] = None,
) -> Tuple[SimulationOutcome, KeyedRows]:
    """Resolve and execute one unsharded config (sharding's entry point).

    What :func:`run_simulation` runs for ``shards == 1``; it also
    exposes the shard ``selection`` seam and returns the keyed rows a
    shard worker ships back for the deterministic merge.
    """
    traces = resolve_workload(config.workload, config.seed)
    policy_factory = _with_ttl_classes(
        _policy_factory(config.policy), config.cache
    )
    return _run_tree(
        config,
        traces,
        policy_factory,
        selection=selection,
        instrument=instrument,
    )


def run_simulation(
    config: SimulationConfig,
    *,
    workers: Optional[int] = None,
    instrument: Optional[TreeInstrument] = None,
) -> SimulationOutcome:
    """Execute one :class:`SimulationConfig` end to end.

    Deterministic in ``config.seed``; raises
    :class:`~repro.api.config.SimulationConfigError` for unresolvable
    sources, policies, or object keys before any simulation starts.

    ``workers`` is consumed only by sharded configs
    (``config.shards > 1``): the size of the process pool that runs
    shards 1..N-1 while shard 0 runs in this process.  ``None`` (the
    default) and ``1`` mean no pool — every shard runs here, one after
    another, to the same rows.  ``instrument`` (tree topologies with a
    synchronous link at every level only) runs on each live tree after
    registration —
    under sharding it is pickled to worker processes, so it must be a
    module-level callable or a :class:`functools.partial` over one.
    """
    _check_fastforward(config)
    if instrument is not None and config.topology.kind != "tree":
        raise SimulationConfigError(
            "instrument hooks require the 'tree' topology, "
            f"got {config.topology.kind!r}"
        )
    _check_latent_links(config, instrument)
    if config.shards > 1:
        from repro.topology.sharding import run_sharded

        return run_sharded(config, workers=workers, instrument=instrument)
    outcome, _keyed = _run_tree_config(config, instrument=instrument)
    return outcome


def _passed(**keywords: Any) -> Dict[str, Any]:
    """The keywords a caller actually gave a builder section method.

    Section methods default every keyword to ``None`` ("not given") and
    forward only the rest, so each section default is declared once —
    on its config dataclass.
    """
    return {
        name: value for name, value in keywords.items() if value is not None
    }


class SimulationBuilder:
    """Fluent construction of a :class:`SimulationConfig`.

    Every step returns the builder, so configurations read as one
    chain; :meth:`build` produces the validated, serializable config
    and :meth:`run` executes it directly.  Starting from an existing
    config (``SimulationBuilder(config)``) makes the builder a typed
    override mechanism.
    """

    def __init__(self, base: Optional[SimulationConfig] = None) -> None:
        self._config = base if base is not None else SimulationConfig()

    def workload(
        self,
        source: Union[str, WorkloadConfig],
        *objects: str,
        **params: object,
    ) -> "SimulationBuilder":
        """Select the workload: a source name plus object keys, or a config."""
        if isinstance(source, WorkloadConfig):
            if objects or params:
                raise TypeError(
                    "pass either a WorkloadConfig or source/objects/params, "
                    "not both"
                )
            workload = source
        else:
            workload = WorkloadConfig(
                source=source,
                objects=objects or self._config.workload.objects,
                params=params,
            )
        self._config = replace(self._config, workload=workload)
        return self

    def policy(
        self, name: Union[str, PolicyConfig], **params: object
    ) -> "SimulationBuilder":
        """Select the consistency policy by registry name (plus kwargs)."""
        if isinstance(name, PolicyConfig):
            if params:
                raise TypeError(
                    "pass either a PolicyConfig or name/params, not both"
                )
            policy = name
        else:
            policy = PolicyConfig(name=name, params=params)
        self._config = replace(self._config, policy=policy)
        return self

    def topology(
        self,
        kind: Union[str, TopologyConfig],
        *,
        levels: Optional[Sequence[LevelConfig]] = None,
    ) -> "SimulationBuilder":
        """Select the proxy topology (``single`` or ``tree``).

        ``tree`` takes ``levels`` (a sequence of :class:`LevelConfig`
        or equivalent mappings), root level first.  Omitted ``levels``
        carry over from the builder's current topology while the kind
        stays ``tree``.
        """
        if isinstance(kind, TopologyConfig):
            if levels is not None:
                raise TypeError(
                    "pass either a TopologyConfig or kind/levels, not both"
                )
            topology = kind
        else:
            if levels is None and kind == "tree":
                levels = self._config.topology.levels
            topology = TopologyConfig(kind=kind, **_passed(levels=levels))
        self._config = replace(self._config, topology=topology)
        return self

    def network(
        self,
        one_way_latency_s: Union[None, float, NetworkConfig] = None,
        *,
        jitter_s: Optional[float] = None,
    ) -> "SimulationBuilder":
        """Set the link latency model."""
        if isinstance(one_way_latency_s, NetworkConfig):
            network = one_way_latency_s
        else:
            network = NetworkConfig(
                **_passed(
                    one_way_latency_s=one_way_latency_s, jitter_s=jitter_s
                )
            )
        self._config = replace(self._config, network=network)
        return self

    def cache(
        self,
        capacity: Union[None, int, CacheConfig] = None,
        *,
        eviction: Optional[str] = None,
        ttl_classes: Optional[Dict[str, float]] = None,
        default_ttl_s: Optional[float] = None,
        object_classes: Optional[Dict[str, str]] = None,
    ) -> "SimulationBuilder":
        """Bound each node's cache and/or declare TTL classes.

        ``capacity=None`` keeps the paper's unbounded cache (TTL
        classes still apply); a bounded cache evicts its least recently
        used entry.  A :class:`CacheConfig` replaces the whole section.
        ``eviction`` accepts only ``"lru"``, the one policy.  Example::

            builder.cache(64, ttl_classes={"news": 300.0},
                          object_classes={"cnn_fn": "news"})
        """
        if eviction not in (None, "lru"):
            raise SimulationConfigError(
                f"unknown eviction policy {eviction!r}; available: ['lru']"
            )
        if isinstance(capacity, CacheConfig):
            cache = capacity
        else:
            cache = CacheConfig(
                **_passed(
                    capacity=capacity,
                    ttl_classes=ttl_classes,
                    default_ttl_s=default_ttl_s,
                    object_classes=object_classes,
                )
            )
        self._config = replace(self._config, cache=cache)
        return self

    def groups(
        self,
        groups: Union[None, GroupsConfig, Sequence[GroupConfig]] = None,
        *,
        edges: Optional[Sequence[Sequence[str]]] = None,
        component_delta: Optional[float] = None,
        mode: Optional[str] = None,
        rate_ratio_threshold: Optional[float] = None,
    ) -> "SimulationBuilder":
        """Declare mutual-consistency groups.

        Pass explicit :class:`GroupConfig` entries, dependency
        ``edges`` (each connected component becomes a group at
        ``component_delta``), or a whole :class:`GroupsConfig`.
        Example::

            builder.groups(
                [GroupConfig("scores", ("team_a", "team_b"), 30.0)],
                edges=[("team_a", "summary")],
                mode="heuristic",
            )
        """
        if isinstance(groups, GroupsConfig):
            section = groups
        else:
            section = GroupsConfig(
                **_passed(
                    groups=groups,
                    edges=edges,
                    component_delta=component_delta,
                    mode=mode,
                    rate_ratio_threshold=rate_ratio_threshold,
                )
            )
        self._config = replace(self._config, groups=section)
        return self

    def seed(self, seed: int) -> "SimulationBuilder":
        """Set the root RNG seed."""
        self._config = replace(self._config, seed=seed)
        return self

    def horizon(self, horizon_s: Optional[float]) -> "SimulationBuilder":
        """Set the stop time (``None``: run to the longest trace end)."""
        self._config = replace(self._config, horizon_s=horizon_s)
        return self

    def fidelity_delta(self, delta_s: Optional[float]) -> "SimulationBuilder":
        """Set the Δt used for the fidelity result columns."""
        self._config = replace(self._config, fidelity_delta_s=delta_s)
        return self

    def history(
        self, *, supports: bool = True, want: bool = True
    ) -> "SimulationBuilder":
        """Configure origin history support and proxy history requests."""
        self._config = replace(
            self._config, supports_history=supports, want_history=want
        )
        return self

    def fidelity(self, mode: str) -> "SimulationBuilder":
        """Select the execution fidelity (``exact`` or ``fastforward``).

        ``fastforward`` keeps poll timers on a private scheduler and
        batch-dispatches only external events; observable histories
        stay byte-identical to ``exact`` up to the dispatched-event
        count and coincident-timestamp tie order (see
        :mod:`repro.sim.fastforward`).
        """
        self._config = replace(self._config, fidelity=mode)
        return self

    def shards(self, count: int) -> "SimulationBuilder":
        """Partition a ``tree`` run across ``count`` shard processes."""
        self._config = replace(self._config, shards=count)
        return self

    def build(self) -> SimulationConfig:
        """The validated, serializable configuration built so far."""
        return self._config

    def run(self, *, workers: Optional[int] = None) -> SimulationOutcome:
        """Build and execute in one step.

        ``workers`` sizes the process pool of a sharded run (``None``,
        the default: no pool, the shards run one after another in this
        process); it is ignored (and harmless) for unsharded configs.
        """
        return run_simulation(self.build(), workers=workers)
