"""Per-level structural specification of a proxy tree.

A tree is described level by level: each :class:`TreeLevel` gives the
fan-out (children per node of the level above) and the latency model
of the link to the level above.  Every node polls its upstream on its
refresh policy's TTR schedule.

Refresh policies are deliberately *not* part of the level spec: the
structure of a tree and the policies run over it vary independently
(the same CDN shape is swept over many Δ values), so policies arrive at
registration time via a :data:`LevelPolicyFactory`.

**Staleness composes additively.**  If level i guarantees its copy is
at most Δᵢ behind its upstream, the edge copy is at most ``Σ Δᵢ``
behind the origin (:func:`additive_staleness_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.consistency.base import RefreshPolicy
from repro.core.errors import ReproError
from repro.core.types import ObjectId, Seconds
from repro.httpsim.network import LatencyModel

#: Builds the refresh policy for one (level, object) pair.  Level 0 is
#: the level closest to the origin; higher levels poll the level above.
LevelPolicyFactory = Callable[[int, ObjectId], RefreshPolicy]


class TopologyError(ReproError):
    """A topology specification was malformed or inconsistent."""


@dataclass(frozen=True)
class TreeLevel:
    """Structure of one tree level: fan-out and link latency.

    Attributes:
        fan_out: Children per node of the level above (per origin for
            level 0); must be >= 1.
        latency: Latency model of every link into this level.
    """

    fan_out: int = 1
    latency: LatencyModel = field(default_factory=LatencyModel)

    def __post_init__(self) -> None:
        if self.fan_out < 1:
            raise TopologyError(
                f"level fan_out must be >= 1, got {self.fan_out}"
            )


def warm_up_bound(levels: Sequence[TreeLevel]) -> Seconds:
    """Worst-case time until the deepest level's registration lands.

    Below latent links a node only installs once its upstream's initial
    fetch completed (see
    :meth:`~repro.topology.tree.TopologyTree.register_object`), so the
    deepest level is registered after at most one worst-case round trip
    per upstream link: ``Σ 2·(one_way + jitter)`` over all levels above
    it.  Zero for any all-synchronous tree.
    """
    return sum(
        2 * (level.latency.one_way + level.latency.jitter)
        for level in levels[:-1]
    )


def additive_staleness_bound(per_level_bounds: Sequence[Seconds]) -> Seconds:
    """The edge's worst-case staleness behind the origin: ``Σ Δᵢ``.

    Each entry is the staleness bound Δᵢ one level guarantees against
    its own upstream.
    """
    if not per_level_bounds:
        raise TopologyError("need at least one per-level staleness bound")
    total: Seconds = 0.0
    for bound in per_level_bounds:
        if bound < 0:
            raise TopologyError(
                f"per-level staleness bounds must be >= 0, got {bound}"
            )
        total += bound
    return total
