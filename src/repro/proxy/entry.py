"""Per-object cache bookkeeping at the proxy.

A :class:`CacheEntry` holds the cached snapshot plus the poll/fetch
history the metrics layer needs to reconstruct, after the run, what the
proxy believed at every instant (the basis for fidelity computation).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.events import PollReason
from repro.core.types import ObjectId, ObjectSnapshot, Seconds


class FetchRecord:
    """One completed poll/fetch of an object, as the proxy saw it.

    A ``__slots__`` value record rather than a dataclass: one is
    allocated per simulated poll, so construction cost and per-instance
    memory are on the simulation's hot path.

    Attributes:
        time: When the response was processed at the proxy.
        snapshot: The object state held in cache after this fetch.
        modified: Whether the server returned a new version (200) rather
            than a 304.
        reason: Why the poll was issued.
    """

    __slots__ = ("time", "snapshot", "modified", "reason")

    def __init__(
        self,
        time: Seconds,
        snapshot: ObjectSnapshot,
        modified: bool,
        reason: PollReason,
    ) -> None:
        self.time = time
        self.snapshot = snapshot
        self.modified = modified
        self.reason = reason

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FetchRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.snapshot == other.snapshot
            and self.modified == other.modified
            and self.reason == other.reason
        )

    def __hash__(self) -> int:
        return hash((self.time, self.snapshot, self.modified, self.reason))

    def __repr__(self) -> str:
        return (
            f"FetchRecord(time={self.time!r}, snapshot={self.snapshot!r}, "
            f"modified={self.modified!r}, reason={self.reason!r})"
        )


class CacheEntry:
    """The proxy's cached state for one object.

    Attributes:
        snapshot: The cached object state (None before the first fetch).
        modification_times: Distinct, ascending server modification
            times observed so far — the live list a parent proxy reads
            per request to serve the Section 5.1 history header.

    ``ProxyCache._complete_poll`` is the one writer of both attributes
    and of the fetch log, inline on the poll path.
    """

    __slots__ = ("_object_id", "snapshot", "_fetch_log", "_hits", "modification_times")

    def __init__(self, object_id: ObjectId) -> None:
        self._object_id = object_id
        self.snapshot: Optional[ObjectSnapshot] = None
        self._fetch_log: List[FetchRecord] = []
        self._hits = 0
        self.modification_times: List[Seconds] = []

    @property
    def object_id(self) -> ObjectId:
        return self._object_id

    @property
    def populated(self) -> bool:
        return self.snapshot is not None

    @property
    def fetch_log(self) -> Sequence[FetchRecord]:
        return tuple(self._fetch_log)

    @property
    def poll_count(self) -> int:
        """Total polls recorded for this entry."""
        return len(self._fetch_log)

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def last_poll_time(self) -> Optional[Seconds]:
        if not self._fetch_log:
            return None
        return self._fetch_log[-1].time

    def record_hit(self) -> None:
        self._hits += 1

    def __repr__(self) -> str:
        version = self.snapshot.version if self.snapshot else None
        return (
            f"CacheEntry({self._object_id!r}, version={version}, "
            f"polls={len(self._fetch_log)}, hits={self._hits})"
        )
