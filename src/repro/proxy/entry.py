"""Per-object cache bookkeeping at the proxy.

A :class:`CacheEntry` holds the cached snapshot plus the poll/fetch
history the metrics layer needs to reconstruct, after the run, what the
proxy believed at every instant (the basis for fidelity computation).
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.core.types import ObjectId, ObjectSnapshot, Seconds


class CacheEntry:
    """The proxy's cached state for one object.

    The fetch log is two parallel columns, one row per completed poll:
    no per-poll record object outlives the poll.

    Attributes:
        snapshot: The cached object state (None before the first fetch).
        modification_times: Distinct, ascending server modification
            times observed so far — the live list a parent proxy reads
            per request to serve the Section 5.1 history header.
        fetch_times: When each response was processed, ascending.
        fetch_snapshots: The object state held in cache after each fetch.

    ``ProxyCache._complete_poll`` is the one writer of all of them,
    inline on the poll path.  It builds a snapshot only for a new
    version (a 200); a 304 or an overtaken 200 re-appends the cached
    one, so identity gives :attr:`fetch_modified` exactly.  Why a poll
    was issued is counted (the proxy's ``polls_<reason>``), not logged.
    """

    __slots__ = (
        "_object_id",
        "snapshot",
        "fetch_times",
        "fetch_snapshots",
        "_hits",
        "modification_times",
    )

    def __init__(self, object_id: ObjectId) -> None:
        self._object_id = object_id
        self.snapshot: Optional[ObjectSnapshot] = None
        self.fetch_times: "array[float]" = array("d")
        self.fetch_snapshots: List[ObjectSnapshot] = []
        self._hits = 0
        self.modification_times: List[Seconds] = []

    @property
    def object_id(self) -> ObjectId:
        return self._object_id

    @property
    def populated(self) -> bool:
        return self.snapshot is not None

    @property
    def poll_count(self) -> int:
        """Total polls recorded for this entry."""
        return len(self.fetch_times)

    @property
    def fetch_modified(self) -> List[bool]:
        """Whether each fetch returned a new version (200), not a 304: a
        row whose snapshot is not the previous row's (row 0 always is)."""
        snapshots = self.fetch_snapshots
        return [s is not p for p, s in zip([None, *snapshots], snapshots)]

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def last_poll_time(self) -> Optional[Seconds]:
        if not self.fetch_times:
            return None
        return self.fetch_times[-1]

    def record_hit(self) -> None:
        self._hits += 1

    def __repr__(self) -> str:
        version = self.snapshot.version if self.snapshot else None
        return (
            f"CacheEntry({self._object_id!r}, version={version}, "
            f"polls={len(self.fetch_times)}, hits={self._hits})"
        )
