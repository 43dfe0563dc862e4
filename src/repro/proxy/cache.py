"""Object cache storage with optional capacity bounds.

The paper's experiments "assume that the proxy employs an infinitely
large cache" (Section 6.1.1); :class:`ObjectCache` defaults to that.
A bounded cache evicts the least recently used entry, and keeps the
bookkeeping eviction scoring needs: every eviction opens an absence
span that closes when the object is refetched, because between those
two instants the object has *no* cached copy and no poll history — the
consistency policy's staleness bound Δ is void for that span, which is
what the ``evictions``, ``refetch_after_evict`` and
``staleness_violations`` result columns measure.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.errors import CacheConfigurationError
from repro.core.types import ObjectId, Seconds
from repro.proxy.entry import CacheEntry


def _zero_clock() -> Seconds:
    return 0.0


class ObjectCache:
    """A mapping of object id → :class:`CacheEntry` with LRU eviction.

    Args:
        capacity: Maximum number of entries, or ``None`` for unbounded
            (the paper's configuration).  A full cache evicts the entry
            untouched for the longest time; the just-inserted entry is
            never the victim.
        eviction: Must be ``"lru"``, the only policy; any other name
            raises :class:`~repro.core.errors.CacheConfigurationError`.
    """

    __slots__ = (
        "_capacity",
        "bounded",
        "_recency",
        "entries",
        "_evictions",
        "_refetches_after_evict",
        "_absences",
        "_clock",
    )

    def __init__(
        self,
        capacity: Optional[int] = None,
        eviction: str = "lru",
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise CacheConfigurationError(
                f"capacity must be positive or None, got {capacity}"
            )
        if eviction != "lru":
            raise CacheConfigurationError(
                f"unknown eviction policy {eviction!r}; available: ['lru']"
            )
        self._capacity = capacity
        #: Whether a capacity is set: lookups of a bounded cache must go
        #: through :meth:`get` or :meth:`get_or_create` to mark recency.
        self.bounded = capacity is not None
        #: Bounded caches only: every cached id, least recently used
        #: first.  Unbounded caches (the per-poll hot path) skip it.
        self._recency: Optional["OrderedDict[ObjectId, None]"] = (
            OrderedDict() if capacity is not None else None
        )
        #: Object id → entry.  Read-only outside this class: a proxy's
        #: per-poll paths look an entry up here directly (a method is a
        #: frame per poll); only :meth:`put` and :meth:`remove` write it.
        self.entries: Dict[ObjectId, CacheEntry] = {}
        self._evictions = 0
        self._refetches_after_evict = 0
        #: Per evicted object, its eviction and refetch times
        #: alternating, ascending: ``[evicted, refetched, evicted, ...]``,
        #: unboxed in one ``array('d')``.  An odd length means the last
        #: span is still open.  Only ``put`` writes it, so a key is
        #: present iff the object was evicted, and no array is empty.
        self._absences: Dict[ObjectId, "array[float]"] = {}
        #: Simulation clock; bound by the owning proxy so spans carry
        #: simulation timestamps (defaults to a constant 0.0 clock for
        #: standalone use, where spans only convey ordering).
        self._clock: Callable[[], Seconds] = _zero_clock

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    @property
    def eviction_count(self) -> int:
        return self._evictions

    @property
    def refetch_after_evict_count(self) -> int:
        """How many evicted objects later re-entered the cache."""
        return self._refetches_after_evict

    def bind_clock(self, clock: Callable[[], Seconds]) -> None:
        """Timestamp absence spans with ``clock()`` (the kernel's now)."""
        self._clock = clock

    def was_evicted(self, object_id: ObjectId) -> bool:
        """Whether the object was ever evicted from this cache."""
        return object_id in self._absences

    def absences_of(self, object_id: ObjectId) -> Tuple[Seconds, ...]:
        """One object's absence spans as alternating evicted/refetched times.

        Pairs ``(t[0], t[1]), (t[2], t[3]), ...`` are closed spans; an odd
        length means the object was evicted at ``t[-1]`` and has not
        re-entered the cache since.  Empty if it was never evicted.
        """
        return tuple(self._absences.get(object_id, ()))

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self.entries

    def __iter__(self) -> Iterator[ObjectId]:
        return iter(self.entries)

    def get(self, object_id: ObjectId, *, touch: bool = True) -> Optional[CacheEntry]:
        """Look up an entry; ``touch`` marks it most recently used.

        Recency bookkeeping only matters when eviction can happen, so
        unbounded caches (the paper's configuration, and the per-poll
        hot path) skip it entirely.
        """
        entries = self.entries
        if object_id not in entries:
            return None
        if touch and self._recency is not None:
            self._recency.move_to_end(object_id)
        return entries[object_id]

    def put(self, entry: CacheEntry) -> Optional[CacheEntry]:
        """Insert an entry, evicting the least recently used if over capacity.

        Returns:
            The evicted entry, if any.
        """
        object_id = entry.object_id
        recency = self._recency
        if object_id in self.entries:
            self.entries[object_id] = entry
            if recency is not None:
                recency.move_to_end(object_id)
            return None
        self.entries[object_id] = entry
        absences = self._absences.get(object_id)
        if absences is not None and len(absences) & 1:
            absences.append(self._clock())
            self._refetches_after_evict += 1
        if recency is None:
            return None
        # The new id joins at the recency tail, so with capacity >= 1 an
        # overfull cache always has an older id at the head to evict.
        recency[object_id] = None
        if len(self.entries) <= (self._capacity or 0):
            return None
        victim_id, _ = recency.popitem(last=False)
        victim = self.entries.pop(victim_id)
        absences = self._absences.get(victim_id)
        if absences is None:
            self._absences[victim_id] = array("d", (self._clock(),))
        else:
            absences.append(self._clock())
        self._evictions += 1
        return victim

    def get_or_create(self, object_id: ObjectId) -> CacheEntry:
        """Return the entry for ``object_id``, creating it if absent."""
        entry = self.entries.get(object_id)
        if entry is None:
            entry = CacheEntry(object_id)
            self.put(entry)
        elif self._recency is not None:
            self._recency.move_to_end(object_id)
        return entry

    def remove(self, object_id: ObjectId) -> Optional[CacheEntry]:
        """Remove and return an entry (None if absent)."""
        entry = self.entries.pop(object_id, None)
        if entry is not None and self._recency is not None:
            self._recency.pop(object_id, None)
        return entry

    def __repr__(self) -> str:
        cap = "inf" if self._capacity is None else str(self._capacity)
        return (
            f"ObjectCache(size={len(self.entries)}, capacity={cap}, "
            f"evictions={self._evictions})"
        )
