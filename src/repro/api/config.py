"""Typed, JSON-round-trip simulation configuration.

:class:`SimulationConfig` is the declarative description of one
simulation — *which* workload feeds *which* consistency policy over
*which* proxy topology and network — as plain data.  It composes five
sub-configs (:class:`WorkloadConfig`, :class:`PolicyConfig`,
:class:`TopologyConfig`, :class:`NetworkConfig`,
:class:`CacheConfig`), each frozen, validated
on construction, and serializable with the same discipline as
:class:`~repro.scenarios.spec.ScenarioSpec`:

* ``to_dict → json.dumps → json.loads → from_dict`` is the identity;
* unknown fields are rejected (a typo'd knob is an error, not a
  silently ignored setting);
* wrong-shaped values fail at parse time with the field named.

Configs are *data only*: resolving a policy name to a factory or a
workload source to traces happens in :mod:`repro.api.builder` /
:mod:`repro.api.workloads`, so a config file can be validated without
running anything.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING as _MISSING
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Type, TypeVar

from repro.api.jsonable import check_jsonable, freeze, thaw
from repro.core.errors import ReproError
from repro.core.rng import DEFAULT_SEED

C = TypeVar("C", bound="_ConfigBase")

#: Topology kinds the assembly layer understands.
TOPOLOGY_KINDS = ("single", "tree")

#: Execution fidelities: ``exact`` dispatches every timer event;
#: ``fastforward`` keeps poll timers on the analytic engine's private
#: scheduler (:mod:`repro.sim.fastforward`) and dispatches only external
#: events, with byte-identical result rows.
FIDELITY_MODES = ("exact", "fastforward")


class SimulationConfigError(ReproError):
    """A simulation configuration was malformed or inconsistent."""


def _require_str(owner: str, name: str, value: object) -> str:
    if not isinstance(value, str):
        raise SimulationConfigError(
            f"{owner}.{name} must be a string, got {type(value).__name__}"
        )
    return value


def _require_bool(owner: str, name: str, value: object) -> bool:
    if not isinstance(value, bool):
        raise SimulationConfigError(
            f"{owner}.{name} must be a boolean, got {type(value).__name__}"
        )
    return value


def _require_int(owner: str, name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SimulationConfigError(
            f"{owner}.{name} must be an integer, got {value!r}"
        )
    return value


def _require_float(owner: str, name: str, value: object) -> float:
    # NaN and ±inf pass every range check below and hang or skew a run.
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise SimulationConfigError(
            f"{owner}.{name} must be a finite number, got {value!r}"
        )
    return float(value)


def _require_params(owner: str, value: object) -> Dict[str, object]:
    if not isinstance(value, Mapping):
        raise SimulationConfigError(
            f"{owner}.params must be a mapping, got {type(value).__name__}"
        )
    for key, item in value.items():
        if not isinstance(key, str):
            raise SimulationConfigError(
                f"{owner}.params keys must be strings, got {key!r}"
            )
        check_jsonable(f"{owner}.params.{key}", item, SimulationConfigError)
    return {key: freeze(item) for key, item in value.items()}


class _ConfigBase:
    """Shared strict ``from_dict`` for every config dataclass."""

    @classmethod
    def from_dict(cls: Type[C], data: Mapping[str, object]) -> C:
        """Build from a plain mapping, rejecting unknown fields."""
        if not isinstance(data, Mapping):
            raise SimulationConfigError(
                f"{cls.__name__} must be a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}  # type: ignore[arg-type]
        unknown = sorted(set(data) - known)
        if unknown:
            raise SimulationConfigError(
                f"unknown {cls.__name__} field(s): {unknown}; "
                f"known: {sorted(known)}"
            )
        required = {
            f.name
            for f in fields(cls)  # type: ignore[arg-type]
            if f.default is _MISSING and f.default_factory is _MISSING  # type: ignore[misc]
        }
        missing = sorted(required - set(data))
        if missing:
            raise SimulationConfigError(
                f"missing {cls.__name__} field(s): {missing}"
            )
        return cls(**dict(data))  # type: ignore[arg-type]


@dataclass(frozen=True)
class WorkloadConfig(_ConfigBase):
    """Which update traces drive the simulation.

    Attributes:
        source: Registered workload source ("news", "stocks", ...); see
            :mod:`repro.api.workloads`.
        objects: Trace keys to instantiate (one cached object each).
        params: Source-specific knobs, passed to the source factory.
    """

    source: str = "news"
    objects: Tuple[str, ...] = ("cnn_fn",)
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_str("workload", "source", self.source)
        if not self.source:
            raise SimulationConfigError("workload.source must be non-empty")
        if isinstance(self.objects, (str, bytes)) or not isinstance(
            self.objects, Sequence
        ):
            raise SimulationConfigError(
                "workload.objects must be a sequence of trace keys, got "
                f"{type(self.objects).__name__}"
            )
        items = tuple(self.objects)
        if not items:
            raise SimulationConfigError("workload.objects must be non-empty")
        seen: set[str] = set()
        for item in items:
            if not isinstance(item, str) or not item:
                raise SimulationConfigError(
                    f"workload.objects entries must be non-empty strings, "
                    f"got {item!r}"
                )
            if item in seen:
                raise SimulationConfigError(
                    f"workload.objects names {item!r} more than once"
                )
            seen.add(item)
        object.__setattr__(self, "objects", items)
        object.__setattr__(self, "params", _require_params("workload", self.params))

    def to_dict(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "objects": list(self.objects),
            "params": {k: thaw(v) for k, v in self.params.items()},
        }


@dataclass(frozen=True)
class PolicyConfig(_ConfigBase):
    """Which consistency policy every cached object runs.

    ``name`` resolves through the consistency-policy registry
    (:func:`repro.consistency.registry.build_policy_factory`); ``params``
    are its keyword arguments — e.g. ``{"delta": 600.0}`` for
    ``baseline`` or ``{"delta": 600.0, "ttr_max": 3600.0}`` for
    ``limd``.
    """

    name: str = "limd"
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_str("policy", "name", self.name)
        if not self.name:
            raise SimulationConfigError("policy.name must be non-empty")
        object.__setattr__(self, "params", _require_params("policy", self.params))

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "params": {k: thaw(v) for k, v in self.params.items()},
        }


@dataclass(frozen=True)
class LevelConfig(_ConfigBase):
    """One level of a ``tree`` topology.

    Attributes:
        fan_out: Children per node of the level above (per origin for
            level 0).
        policy: Per-level policy override; ``None`` inherits the
            simulation's top-level policy.
        network: Per-link latency override for this level; ``None``
            inherits the simulation's top-level network.
    """

    fan_out: int = 1
    policy: Optional[PolicyConfig] = None
    network: Optional[NetworkConfig] = None

    def __post_init__(self) -> None:
        _require_int("level", "fan_out", self.fan_out)
        if self.fan_out < 1:
            raise SimulationConfigError(
                f"level.fan_out must be >= 1, got {self.fan_out}"
            )
        for name, sub_type in (
            ("policy", PolicyConfig),
            ("network", NetworkConfig),
        ):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, Mapping):
                value = sub_type.from_dict(value)
                object.__setattr__(self, name, value)
            if not isinstance(value, sub_type):
                raise SimulationConfigError(
                    f"level.{name} must be a {sub_type.__name__} (or "
                    f"mapping or null), got {type(value).__name__}"
                )

    def to_dict(self) -> Dict[str, object]:
        return {
            "fan_out": self.fan_out,
            "policy": self.policy.to_dict() if self.policy else None,
            "network": self.network.to_dict() if self.network else None,
        }


@dataclass(frozen=True)
class TopologyConfig(_ConfigBase):
    """How proxies sit between clients and the origin.

    ``single`` is one proxy polling the origin (the paper's setting);
    ``tree`` is an arbitrary proxy tree described level by level
    (:class:`LevelConfig`) — edge proxies behind one shared parent are
    ``levels=[LevelConfig(), LevelConfig(fan_out=N)]``; see
    :mod:`repro.topology`.
    """

    kind: str = "single"
    levels: Tuple[LevelConfig, ...] = ()

    def __post_init__(self) -> None:
        _require_str("topology", "kind", self.kind)
        if self.kind not in TOPOLOGY_KINDS:
            raise SimulationConfigError(
                f"topology.kind must be one of {TOPOLOGY_KINDS}, "
                f"got {self.kind!r}"
            )
        if isinstance(self.levels, (str, bytes, Mapping)) or not isinstance(
            self.levels, Sequence
        ):
            raise SimulationConfigError(
                "topology.levels must be a sequence of level configs, "
                f"got {type(self.levels).__name__}"
            )
        items = []
        for index, item in enumerate(self.levels):
            if isinstance(item, Mapping):
                item = LevelConfig.from_dict(item)
            if not isinstance(item, LevelConfig):
                raise SimulationConfigError(
                    f"topology.levels[{index}] must be a LevelConfig (or "
                    f"mapping), got {type(item).__name__}"
                )
            items.append(item)
        object.__setattr__(self, "levels", tuple(items))
        if self.kind == "tree" and not self.levels:
            raise SimulationConfigError(
                "topology.kind 'tree' needs at least one entry in "
                "topology.levels"
            )
        if self.kind != "tree" and self.levels:
            raise SimulationConfigError(
                f"topology.levels only applies to kind 'tree', "
                f"got kind {self.kind!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"kind": self.kind}
        # Only trees carry levels.
        if self.kind == "tree":
            data["levels"] = [level.to_dict() for level in self.levels]
        return data


@dataclass(frozen=True)
class NetworkConfig(_ConfigBase):
    """Proxy ↔ origin link model (fixed one-way latency, optional jitter)."""

    one_way_latency_s: float = 0.0
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "one_way_latency_s",
            _require_float("network", "one_way_latency_s", self.one_way_latency_s),
        )
        object.__setattr__(
            self, "jitter_s", _require_float("network", "jitter_s", self.jitter_s)
        )
        if self.one_way_latency_s < 0:
            raise SimulationConfigError(
                f"network.one_way_latency_s must be >= 0, "
                f"got {self.one_way_latency_s}"
            )
        if self.jitter_s < 0 or self.jitter_s > self.one_way_latency_s:
            raise SimulationConfigError(
                f"network.jitter_s must be in [0, one_way_latency_s], "
                f"got {self.jitter_s}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "one_way_latency_s": self.one_way_latency_s,
            "jitter_s": self.jitter_s,
        }


@dataclass(frozen=True)
class CacheConfig(_ConfigBase):
    """Per-node cache bounds and freshness classes.

    The default — unbounded, no TTL classes — is the paper's setting
    ("an infinitely large cache", Section 6.1.1) and changes nothing.

    Attributes:
        capacity: Maximum entries per proxy cache; ``None`` (default)
            is unbounded.  A full cache evicts its least recently used
            entry (see :class:`repro.proxy.cache.ObjectCache`).
        ttl_classes: Declared TTL (seconds) per object class; objects
            resolving to a class listed here run a ``static_ttl``
            policy with that TTL instead of the simulation's main
            policy.
        default_ttl_s: TTL for objects whose class is missing from
            ``ttl_classes``; ``None`` (default) means unclassified
            objects keep the main policy.
        object_classes: Object key → class label.  An object absent
            here is its own class (so ``ttl_classes`` can address
            single objects directly, the way an ops TTL table keys by
            endpoint).
    """

    capacity: Optional[int] = None
    ttl_classes: Mapping[str, float] = field(default_factory=dict)
    default_ttl_s: Optional[float] = None
    object_classes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity is not None:
            _require_int("cache", "capacity", self.capacity)
            if self.capacity <= 0:
                raise SimulationConfigError(
                    f"cache.capacity must be positive or null, "
                    f"got {self.capacity}"
                )
        if not isinstance(self.ttl_classes, Mapping):
            raise SimulationConfigError(
                "cache.ttl_classes must be a mapping, got "
                f"{type(self.ttl_classes).__name__}"
            )
        classes: Dict[str, float] = {}
        for label, ttl in self.ttl_classes.items():
            if not isinstance(label, str) or not label:
                raise SimulationConfigError(
                    f"cache.ttl_classes keys must be non-empty strings, "
                    f"got {label!r}"
                )
            value = _require_float("cache", f"ttl_classes[{label!r}]", ttl)
            if value <= 0:
                raise SimulationConfigError(
                    f"cache.ttl_classes[{label!r}] must be > 0, got {ttl!r}"
                )
            classes[label] = value
        object.__setattr__(self, "ttl_classes", classes)
        if self.default_ttl_s is not None:
            value = _require_float("cache", "default_ttl_s", self.default_ttl_s)
            if value <= 0:
                raise SimulationConfigError(
                    f"cache.default_ttl_s must be > 0 or null, "
                    f"got {self.default_ttl_s!r}"
                )
            object.__setattr__(self, "default_ttl_s", value)
        if not isinstance(self.object_classes, Mapping):
            raise SimulationConfigError(
                "cache.object_classes must be a mapping, got "
                f"{type(self.object_classes).__name__}"
            )
        mapping: Dict[str, str] = {}
        for key, label in self.object_classes.items():
            if not isinstance(key, str) or not key:
                raise SimulationConfigError(
                    f"cache.object_classes keys must be non-empty strings, "
                    f"got {key!r}"
                )
            if not isinstance(label, str) or not label:
                raise SimulationConfigError(
                    f"cache.object_classes[{key!r}] must be a non-empty "
                    f"string, got {label!r}"
                )
            mapping[key] = label
        object.__setattr__(self, "object_classes", mapping)

    @property
    def bounded(self) -> bool:
        return self.capacity is not None

    @property
    def has_ttl_classes(self) -> bool:
        return bool(self.ttl_classes) or self.default_ttl_s is not None

    def to_dict(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "ttl_classes": dict(self.ttl_classes),
            "default_ttl_s": self.default_ttl_s,
            "object_classes": dict(self.object_classes),
        }


#: Mutual-consistency coordinator modes (paper Section 3.2), mirrored
#: from :class:`repro.consistency.mutual_temporal.MutualTemporalMode`
#: so configs validate without importing the consistency layer.
GROUP_MODES = ("none", "triggered", "heuristic")


@dataclass(frozen=True)
class GroupConfig(_ConfigBase):
    """One explicit mutual-consistency group.

    Attributes:
        group_id: Unique group name (the ``group`` result-column value).
        members: Workload object keys in the group (>= 2, distinct).
        mutual_delta: The group's tolerance δ in seconds (Eq. 4).
    """

    group_id: str
    members: Tuple[str, ...]
    mutual_delta: float

    def __post_init__(self) -> None:
        _require_str("group", "group_id", self.group_id)
        if not self.group_id:
            raise SimulationConfigError("group.group_id must be non-empty")
        if isinstance(self.members, (str, bytes)) or not isinstance(
            self.members, Sequence
        ):
            raise SimulationConfigError(
                f"group {self.group_id!r}: members must be a sequence of "
                f"object keys, got {type(self.members).__name__}"
            )
        items = tuple(self.members)
        for item in items:
            if not isinstance(item, str) or not item:
                raise SimulationConfigError(
                    f"group {self.group_id!r}: members must be non-empty "
                    f"strings, got {item!r}"
                )
        if len(items) < 2:
            raise SimulationConfigError(
                f"group {self.group_id!r} needs >= 2 members, "
                f"got {len(items)}"
            )
        if len(set(items)) != len(items):
            raise SimulationConfigError(
                f"group {self.group_id!r} has duplicate members"
            )
        object.__setattr__(self, "members", items)
        value = _require_float("group", "mutual_delta", self.mutual_delta)
        if value < 0:
            raise SimulationConfigError(
                f"group {self.group_id!r}: mutual_delta must be >= 0, "
                f"got {value}"
            )
        object.__setattr__(self, "mutual_delta", value)

    def to_dict(self) -> Dict[str, object]:
        return {
            "group_id": self.group_id,
            "members": list(self.members),
            "mutual_delta": self.mutual_delta,
        }


@dataclass(frozen=True)
class GroupsConfig(_ConfigBase):
    """Mutual-consistency groups as first-class configuration.

    Groups come from two sources, combinable in one config: explicit
    member lists (:class:`GroupConfig`) and connected components of a
    dependency edge list (paper Section 5.2's syntactic relations,
    resolved through :class:`repro.groups.dependency.DependencyGraph`).
    A non-empty groups section attaches a
    :class:`~repro.groups.registry.GroupRegistry` plus one
    mutual-temporal coordinator per proxy node — on any topology,
    including trees — and adds per-group violation rows to the result
    set (see :data:`repro.api.builder.RESULT_COLUMNS`).

    Attributes:
        groups: Explicit groups with per-group ``mutual_delta``.
        edges: Dependency pairs ``[a, b]``; each connected component of
            the resulting graph becomes a group ``component-<i>``.
        component_delta: The δ shared by component-derived groups.
        mode: Coordinator mode — ``triggered`` (poll partners on every
            detected update), ``heuristic`` (rate-gated triggers), or
            ``none`` (bookkeeping only, no extra polls).
        rate_ratio_threshold: The heuristic's rate gate (partner polled
            iff its rate >= threshold × source rate).
    """

    groups: Tuple[GroupConfig, ...] = ()
    edges: Tuple[Tuple[str, str], ...] = ()
    component_delta: float = 600.0
    mode: str = "triggered"
    rate_ratio_threshold: float = 0.8

    def __post_init__(self) -> None:
        if isinstance(self.groups, (str, bytes, Mapping)) or not isinstance(
            self.groups, Sequence
        ):
            raise SimulationConfigError(
                "groups.groups must be a sequence of group configs, "
                f"got {type(self.groups).__name__}"
            )
        items = []
        seen_ids = set()
        for index, item in enumerate(self.groups):
            if isinstance(item, Mapping):
                item = GroupConfig.from_dict(item)
            if not isinstance(item, GroupConfig):
                raise SimulationConfigError(
                    f"groups.groups[{index}] must be a GroupConfig (or "
                    f"mapping), got {type(item).__name__}"
                )
            if item.group_id in seen_ids:
                raise SimulationConfigError(
                    f"duplicate group id {item.group_id!r} in groups.groups"
                )
            seen_ids.add(item.group_id)
            items.append(item)
        object.__setattr__(self, "groups", tuple(items))
        if isinstance(self.edges, (str, bytes, Mapping)) or not isinstance(
            self.edges, Sequence
        ):
            raise SimulationConfigError(
                "groups.edges must be a sequence of [a, b] pairs, "
                f"got {type(self.edges).__name__}"
            )
        pairs = []
        for index, pair in enumerate(self.edges):
            if isinstance(pair, (str, bytes)) or not isinstance(
                pair, Sequence
            ) or len(pair) != 2:
                raise SimulationConfigError(
                    f"groups.edges[{index}] must be a pair of object "
                    f"keys, got {pair!r}"
                )
            a, b = pair
            for end in (a, b):
                if not isinstance(end, str) or not end:
                    raise SimulationConfigError(
                        f"groups.edges[{index}] entries must be non-empty "
                        f"strings, got {end!r}"
                    )
            if a == b:
                raise SimulationConfigError(
                    f"groups.edges[{index}] relates {a!r} to itself"
                )
            pairs.append((a, b))
        object.__setattr__(self, "edges", tuple(pairs))
        value = _require_float("groups", "component_delta", self.component_delta)
        if value < 0:
            raise SimulationConfigError(
                f"groups.component_delta must be >= 0, got {value}"
            )
        object.__setattr__(self, "component_delta", value)
        _require_str("groups", "mode", self.mode)
        if self.mode not in GROUP_MODES:
            raise SimulationConfigError(
                f"groups.mode must be one of {GROUP_MODES}, got {self.mode!r}"
            )
        threshold = _require_float(
            "groups", "rate_ratio_threshold", self.rate_ratio_threshold
        )
        if threshold <= 0:
            raise SimulationConfigError(
                f"groups.rate_ratio_threshold must be > 0, got {threshold}"
            )
        object.__setattr__(self, "rate_ratio_threshold", threshold)

    @property
    def enabled(self) -> bool:
        """True when any group (explicit or derived) is configured."""
        return bool(self.groups or self.edges)

    def to_dict(self) -> Dict[str, object]:
        return {
            "groups": [group.to_dict() for group in self.groups],
            "edges": [list(pair) for pair in self.edges],
            "component_delta": self.component_delta,
            "mode": self.mode,
            "rate_ratio_threshold": self.rate_ratio_threshold,
        }


#: SimulationConfig fields holding a nested sub-config, with their types.
_SUB_CONFIGS: Dict[str, Type[_ConfigBase]] = {
    "workload": WorkloadConfig,
    "policy": PolicyConfig,
    "topology": TopologyConfig,
    "network": NetworkConfig,
    "cache": CacheConfig,
    "groups": GroupsConfig,
}


@dataclass(frozen=True)
class SimulationConfig(_ConfigBase):
    """The complete, serializable description of one simulation.

    Attributes:
        workload: Traces to feed (source + object keys + knobs).
        policy: Per-object consistency policy (registry name + params).
        topology: Proxy arrangement between clients and origin.
        network: Link latency model.
        cache: Per-node cache bound (an LRU capacity) and TTL
            classes; the default is the paper's unbounded cache.  A
            bounded cache needs a synchronous link at every level that
            must answer a miss within one call (see
            :func:`repro.api.builder.run_simulation`).
        groups: Mutual-consistency groups (explicit member lists and/or
            dependency-edge components); a non-empty section attaches a
            group registry and mutual-temporal coordinators per node
            and adds per-group violation rows.  Requires ``shards=1``
            and ``fidelity="exact"``.
        seed: Root RNG seed (derives every substream).
        horizon_s: Stop time; ``None`` runs to the longest trace end.
        fidelity_delta_s: Δt used for the fidelity columns of the
            result set; ``None`` skips fidelity evaluation.
        supports_history: Whether the origin answers history requests.
        want_history: Whether the proxy requests update history.
        fidelity: ``"exact"`` (default) dispatches every timer event
            through the kernel; ``"fastforward"`` keeps poll timers on
            a private scheduler, issues each poll through the ordinary
            poll path after an analytic clock advance, and
            batch-dispatches only external events — same result rows
            at a similar speed (see :mod:`repro.sim.fastforward` for
            the two documented divergences: dispatched-event count and
            coincident-timestamp tie order).  Fast-forward requires
            zero-latency links.
        shards: Worker-process partitions for ``tree`` topologies
            (``1`` = unsharded).  The tree is split at a subtree
            boundary level and shards merge deterministically — rows
            are identical to an unsharded run.  See
            :mod:`repro.topology.sharding`.
    """

    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    # The default config must be runnable out of the box: LIMD needs its
    # Δ, so the paper's 10-minute default rides along.
    policy: PolicyConfig = field(
        default_factory=lambda: PolicyConfig(
            name="limd", params={"delta": 600.0}
        )
    )
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    groups: GroupsConfig = field(default_factory=GroupsConfig)
    seed: int = DEFAULT_SEED
    horizon_s: Optional[float] = None
    fidelity_delta_s: Optional[float] = None
    supports_history: bool = True
    want_history: bool = True
    fidelity: str = "exact"
    shards: int = 1

    def __post_init__(self) -> None:
        for name, sub_type in _SUB_CONFIGS.items():
            value = getattr(self, name)
            if isinstance(value, Mapping):
                value = sub_type.from_dict(value)
                object.__setattr__(self, name, value)
            if not isinstance(value, sub_type):
                raise SimulationConfigError(
                    f"{name} must be a {sub_type.__name__} (or mapping), "
                    f"got {type(value).__name__}"
                )
        _require_int("simulation", "seed", self.seed)
        for name in ("horizon_s", "fidelity_delta_s"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(
                    self, name, _require_float("simulation", name, value)
                )
                if getattr(self, name) <= 0:
                    raise SimulationConfigError(
                        f"simulation.{name} must be > 0, got {value!r}"
                    )
        for name in ("supports_history", "want_history"):
            _require_bool("simulation", name, getattr(self, name))
        _require_str("simulation", "fidelity", self.fidelity)
        if self.fidelity not in FIDELITY_MODES:
            raise SimulationConfigError(
                f"simulation.fidelity must be one of {FIDELITY_MODES}, "
                f"got {self.fidelity!r}"
            )
        _require_int("simulation", "shards", self.shards)
        if self.shards < 1:
            raise SimulationConfigError(
                f"simulation.shards must be >= 1, got {self.shards}"
            )
        if self.shards > 1 and self.topology.kind != "tree":
            raise SimulationConfigError(
                f"simulation.shards > 1 requires topology.kind 'tree' "
                f"(the tree is split at a subtree boundary), "
                f"got kind {self.topology.kind!r}"
            )
        if self.groups.enabled and self.shards > 1:
            raise SimulationConfigError(
                "groups cannot combine with shards > 1: a group's members "
                "may span shard cones, and the coordinator needs to "
                "observe every member's polls on one proxy"
            )
        if self.groups.enabled and self.fidelity == "fastforward":
            raise SimulationConfigError(
                'groups require fidelity="exact": mutual-trigger polls '
                "are event-driven and the analytic fast-forward engine "
                "would skip past them"
            )

    # ------------------------------------------------------------------
    # Overrides
    # ------------------------------------------------------------------
    def with_seed(self, seed: int) -> "SimulationConfig":
        """Return a copy running under a different root seed."""
        return replace(self, seed=seed)

    def replace(self, **changes: Any) -> "SimulationConfig":
        """Return a copy with ``changes`` applied (validated as usual)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form: nested dicts and lists, safe to ``json.dumps``."""
        data: Dict[str, object] = {
            "workload": self.workload.to_dict(),
            "policy": self.policy.to_dict(),
            "topology": self.topology.to_dict(),
            "network": self.network.to_dict(),
            "cache": self.cache.to_dict(),
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "fidelity_delta_s": self.fidelity_delta_s,
            "supports_history": self.supports_history,
            "want_history": self.want_history,
            "fidelity": self.fidelity,
            "shards": self.shards,
        }
        # Pre-groups serialized configs keep their historical shape:
        # only a non-default groups section is carried (mirroring how
        # single topologies omit ``levels``).
        if self.groups != GroupsConfig():
            data["groups"] = self.groups.to_dict()
        return data

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "SimulationConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SimulationConfigError(f"invalid config JSON: {exc}") from None
        return cls.from_dict(data)
