"""Group registry: object ↔ group bookkeeping for mutual consistency.

The mutual-consistency coordinators ask one question constantly: *which
groups does this just-updated object belong to, and who are its
partners?*  The registry answers it in O(groups-of-object).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set

from repro.core.errors import UnknownGroupError
from repro.core.types import GroupId, GroupSpec, ObjectId
from repro.groups.dependency import DependencyGraph


class GroupRegistry:
    """Holds :class:`GroupSpec` records and indexes them by member."""

    def __init__(self) -> None:
        self._groups: Dict[GroupId, GroupSpec] = {}
        self._by_member: Dict[ObjectId, Set[GroupId]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_group(self, spec: GroupSpec) -> None:
        """Register a group; its id must be unused.

        The member list is re-validated here even though
        :class:`GroupSpec` checks it at construction: specs built
        through ``object.__new__`` or other bypasses would otherwise
        double-count members in the mutual-Δ bookkeeping.
        """
        if spec.group_id in self._groups:
            raise ValueError(f"group {spec.group_id!r} already registered")
        if len(spec.members) < 2:
            raise ValueError(
                f"group {spec.group_id!r} needs >= 2 members, "
                f"got {len(spec.members)}"
            )
        if len(set(spec.members)) != len(spec.members):
            raise ValueError(f"group {spec.group_id!r} has duplicate members")
        self._groups[spec.group_id] = spec
        for member in spec.members:
            self._by_member.setdefault(member, set()).add(spec.group_id)

    def create_group(
        self,
        group_id: str,
        members: Iterable[ObjectId],
        mutual_delta: float,
    ) -> GroupSpec:
        """Convenience: build and register a group in one step."""
        spec = GroupSpec(
            group_id=GroupId(group_id),
            members=tuple(members),
            mutual_delta=mutual_delta,
        )
        self.add_group(spec)
        return spec

    def remove_group(self, group_id: GroupId) -> GroupSpec:
        """Remove and return a group."""
        spec = self._groups.pop(group_id, None)
        if spec is None:
            raise UnknownGroupError(str(group_id))
        for member in spec.members:
            group_ids = self._by_member.get(member)
            if group_ids is not None:
                group_ids.discard(group_id)
                if not group_ids:
                    del self._by_member[member]
        return spec

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, group_id: GroupId) -> bool:
        return group_id in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator[GroupSpec]:
        return iter(self._groups.values())

    def get(self, group_id: GroupId) -> GroupSpec:
        try:
            return self._groups[group_id]
        except KeyError:
            raise UnknownGroupError(str(group_id)) from None

    def groups_of(self, object_id: ObjectId) -> List[GroupSpec]:
        """All groups the object belongs to (empty list if none)."""
        return [
            self._groups[gid]
            for gid in sorted(self._by_member.get(object_id, ()), key=str)
        ]

    def partners_of(self, object_id: ObjectId) -> Set[ObjectId]:
        """Union of the object's partners across all its groups."""
        partners: Set[ObjectId] = set()
        for spec in self.groups_of(object_id):
            partners.update(spec.partners_of(object_id))
        return partners

    def __repr__(self) -> str:
        return f"GroupRegistry(groups={len(self._groups)})"


def groups_from_components(
    graph: DependencyGraph,
    mutual_delta: float,
    *,
    prefix: str = "component",
    min_size: int = 2,
) -> List[GroupSpec]:
    """Derive one group per connected component of a dependency graph.

    Components smaller than ``min_size`` (isolated objects) are skipped.
    Group ids are ``{prefix}-0``, ``{prefix}-1``, ... in deterministic
    (sorted-member) order.
    """
    specs: List[GroupSpec] = []
    index = 0
    for component in graph.connected_components():
        if len(component) < min_size:
            continue
        members = tuple(sorted(component, key=str))
        specs.append(
            GroupSpec(
                group_id=GroupId(f"{prefix}-{index}"),
                members=members,
                mutual_delta=mutual_delta,
            )
        )
        index += 1
    return specs
