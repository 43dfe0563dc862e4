"""Observability event records.

Components emit these records into an event log (``repro.sim.tracing``)
so experiments can reconstruct *why* a poll happened, when violations
occurred, and how TTRs evolved — the raw material for Figures 4, 6 and 8
of the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.core.types import ObjectId, Seconds


class PollReason(enum.Enum):
    """Why the proxy issued a poll to the origin server."""

    #: The object's TTR expired (normal individual-consistency refresh).
    TTR_EXPIRED = "ttr_expired"
    #: A cache miss forced a fetch from the server.
    CACHE_MISS = "cache_miss"
    #: An update to a related object triggered this poll (Section 3.2).
    MUTUAL_TRIGGER = "mutual_trigger"
    #: First fetch when the object was registered with the proxy.
    INITIAL_FETCH = "initial_fetch"
    #: A server push notified the proxy of an update (the footnote-1
    #: server-based extension; see repro.consistency.invalidation).
    PUSH = "push"

    def __init__(self, value: str) -> None:
        #: The proxy counter that tallies polls issued for this reason; a
        #: plain attribute, so the per-poll bump hashes no enum member.
        self.counter_name = f"polls_{value}"


class ViolationKind(enum.Enum):
    """Which consistency guarantee was violated."""

    #: Individual temporal bound Δ exceeded (Eq. 2).
    INDIVIDUAL_TEMPORAL = "individual_temporal"
    #: Individual value bound Δ exceeded (Eq. 3).
    INDIVIDUAL_VALUE = "individual_value"
    #: Mutual temporal bound δ exceeded (Eq. 4).
    MUTUAL_TEMPORAL = "mutual_temporal"
    #: Mutual value bound δ exceeded (Eq. 5).
    MUTUAL_VALUE = "mutual_value"


@dataclass(frozen=True)
class PollEvent:
    """A single proxy→server poll."""

    time: Seconds
    object_id: ObjectId
    reason: PollReason
    modified: bool
    ttr_before: Optional[Seconds] = None
    ttr_after: Optional[Seconds] = None


@dataclass(frozen=True)
class ViolationEvent:
    """A detected (or ground-truth) consistency violation."""

    time: Seconds
    kind: ViolationKind
    object_id: ObjectId
    #: For mutual violations, the partner object involved.
    partner_id: Optional[ObjectId] = None
    #: The magnitude of the violation (seconds out-of-sync, or value gap).
    magnitude: float = 0.0


@dataclass(frozen=True)
class TTRChangeEvent:
    """The TTR for an object changed (used to plot Fig. 4(b))."""

    time: Seconds
    object_id: ObjectId
    old_ttr: Seconds
    new_ttr: Seconds
    case: str  # which LIMD/adaptive case fired, for debugging


@dataclass(frozen=True)
class UpdateAppliedEvent:
    """The origin server applied an update (ground truth)."""

    time: Seconds
    object_id: ObjectId
    version: int
    value: Optional[float] = None


@dataclass(frozen=True)
class GenericEvent:
    """An extensible event for component-specific observations."""

    time: Seconds
    name: str
    attributes: Mapping[str, object] = field(default_factory=dict)
