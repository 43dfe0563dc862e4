"""Dependency graphs over related web objects (paper Section 5.2).

Relationships among cached objects "can be specified by the user or be
automatically deduced using syntactic or semantic relationships" and
"stored using data structures such as dependency graphs".  This module
provides the graph; :mod:`repro.groups.html_links` provides syntactic
extraction; :mod:`repro.groups.registry` turns graph components or
explicit specifications into the :class:`~repro.core.types.GroupSpec`
records the mutual-consistency coordinators consume.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro.core.types import ObjectId


class DependencyGraph:
    """An undirected graph of relatedness between objects.

    Nodes are object ids; an edge ``(a, b)`` means a and b are related
    (e.g. a page and its embedded image, or two stocks a user compares).
    Mutual-consistency groups are derived as connected components, or as
    explicit node subsets chosen by the caller.
    """

    def __init__(self) -> None:
        self._adjacency: Dict[ObjectId, Set[ObjectId]] = {}

    def add_object(self, object_id: ObjectId) -> None:
        """Ensure a node exists (isolated objects form no group)."""
        self._adjacency.setdefault(object_id, set())

    def relate(self, a: ObjectId, b: ObjectId) -> None:
        """Add an undirected relation between two distinct objects."""
        if a == b:
            raise ValueError(f"cannot relate object {a!r} to itself")
        self._adjacency.setdefault(a, set()).add(b)
        self._adjacency.setdefault(b, set()).add(a)

    def connected_components(self) -> List[FrozenSet[ObjectId]]:
        """Connected components, each a frozenset, deterministic order."""
        visited: Set[ObjectId] = set()
        components: List[FrozenSet[ObjectId]] = []
        for start in sorted(self._adjacency, key=str):
            if start in visited:
                continue
            component: Set[ObjectId] = set()
            stack = [start]
            while stack:
                node = stack.pop()
                if node in component:
                    continue
                component.add(node)
                stack.extend(self._adjacency[node] - component)
            visited |= component
            components.append(frozenset(component))
        return components
