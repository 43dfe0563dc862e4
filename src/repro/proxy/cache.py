"""Object cache storage with optional capacity bounds.

The paper's experiments "assume that the proxy employs an infinitely
large cache" (Section 6.1.1); :class:`ObjectCache` defaults to that.
Bounded caches delegate victim selection to a named policy from
:mod:`repro.proxy.eviction` (``"lru"``, ``"lfu"``, ``"tinylfu"``,
``"clockpro"``) and keep the bookkeeping eviction scoring needs: every
eviction opens an :class:`EvictionWindow` that closes when the object
is refetched, because between those two instants the object has *no*
cached copy and no poll history — the consistency policy's staleness
bound Δ is void for that span, which is what the ``evictions``,
``refetch_after_evict`` and ``staleness_violations`` result columns
measure.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, DefaultDict, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import CacheConfigurationError
from repro.core.types import ObjectId, Seconds
from repro.proxy.entry import CacheEntry
from repro.proxy.eviction import EvictionPolicy, build_eviction_policy

#: Default eviction policy for bounded caches.
DEFAULT_EVICTION = "lru"


def _zero_clock() -> Seconds:
    return 0.0


class EvictionWindow:
    """One cache-absence span for an object: eviction until refetch.

    ``refetched_at`` is ``None`` while the window is open (the object
    never re-entered the cache); consumers treat an open window as
    extending to the end of the observation period.
    """

    __slots__ = ("object_id", "evicted_at", "refetched_at")

    def __init__(self, object_id: ObjectId, evicted_at: Seconds) -> None:
        self.object_id = object_id
        self.evicted_at = evicted_at
        self.refetched_at: Optional[Seconds] = None

    @property
    def closed(self) -> bool:
        return self.refetched_at is not None

    def duration(self, horizon: Seconds) -> Seconds:
        """Length of the absence span, open windows clipped at ``horizon``."""
        end = self.refetched_at if self.refetched_at is not None else horizon
        return max(0.0, end - self.evicted_at)

    def __repr__(self) -> str:
        end = "open" if self.refetched_at is None else f"{self.refetched_at:g}"
        return (
            f"EvictionWindow({self.object_id!r}, "
            f"{self.evicted_at:g} -> {end})"
        )


class ObjectCache:
    """A mapping of object id → :class:`CacheEntry` with eviction.

    Args:
        capacity: Maximum number of entries, or ``None`` for unbounded
            (the paper's configuration).
        eviction: Name of the victim-selection policy for bounded
            caches (see :data:`repro.proxy.eviction.EVICTION_POLICIES`).
    """

    __slots__ = (
        "_capacity",
        "_policy",
        "_eviction_name",
        "_entries",
        "_evictions",
        "_refetches_after_evict",
        "_windows",
        "_windows_by_object",
        "_clock",
    )

    def __init__(
        self,
        capacity: Optional[int] = None,
        eviction: str = DEFAULT_EVICTION,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise CacheConfigurationError(
                f"capacity must be positive or None, got {capacity}"
            )
        self._capacity = capacity
        self._policy: Optional[EvictionPolicy] = (
            build_eviction_policy(eviction, capacity)
            if capacity is not None
            else None
        )
        self._eviction_name = eviction
        self._entries: Dict[ObjectId, CacheEntry] = {}
        self._evictions = 0
        self._refetches_after_evict = 0
        #: All eviction windows ever opened, in eviction order.
        self._windows: List[EvictionWindow] = []
        #: The same windows per object, each list in eviction order; an
        #: object's open window, if any, is the last of its list.  Only
        #: ``put`` indexes it (readers use ``get``/``in``), so a key is
        #: present iff the object was evicted and no list is empty.
        self._windows_by_object: DefaultDict[ObjectId, List[EvictionWindow]] = (
            defaultdict(list)
        )
        #: Simulation clock; bound by the owning proxy so windows carry
        #: simulation timestamps (defaults to a constant 0.0 clock for
        #: standalone use, where windows only convey ordering).
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

    @property
    def eviction_windows(self) -> Tuple[EvictionWindow, ...]:
        """Every absence span opened so far, in eviction order."""
        return tuple(self._windows)

    def bind_clock(self, clock: Callable[[], Seconds]) -> None:
        """Timestamp eviction windows with ``clock()`` (the kernel's now)."""
        self._clock = clock

    def was_evicted(self, object_id: ObjectId) -> bool:
        """Whether the object was ever evicted from this cache."""
        return object_id in self._windows_by_object

    def windows_of(self, object_id: ObjectId) -> Tuple[EvictionWindow, ...]:
        """One object's absence spans, in eviction order."""
        return tuple(self._windows_by_object.get(object_id, ()))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._entries

    def __iter__(self) -> Iterator[ObjectId]:
        return iter(self._entries)

    def get(self, object_id: ObjectId, *, touch: bool = True) -> Optional[CacheEntry]:
        """Look up an entry; ``touch`` marks it recently/frequently used.

        Recency/frequency bookkeeping only matters when eviction can
        happen, so unbounded caches (the paper's configuration, and the
        per-poll hot path) skip it entirely.
        """
        entries = self._entries
        if object_id not in entries:
            return None
        if touch and self._policy is not None:
            self._policy.record_access(object_id)
        return entries[object_id]

    def put(self, entry: CacheEntry) -> Optional[CacheEntry]:
        """Insert an entry, evicting if over capacity.

        Returns:
            The evicted entry, if any.
        """
        object_id = entry.object_id
        policy = self._policy
        if object_id in self._entries:
            self._entries[object_id] = entry
            if policy is not None:
                policy.record_access(object_id)
            return None
        self._entries[object_id] = entry
        windows = self._windows_by_object.get(object_id)
        if windows is not None and windows[-1].refetched_at is None:
            windows[-1].refetched_at = self._clock()
            self._refetches_after_evict += 1
        if policy is None:
            return None
        policy.record_insert(object_id)
        if len(self._entries) <= (self._capacity or 0):
            return None
        victim_id = policy.evict()
        victim = self._entries.pop(victim_id)
        window = EvictionWindow(victim_id, self._clock())
        self._windows.append(window)
        self._windows_by_object[victim_id].append(window)
        self._evictions += 1
        return victim

    def get_or_create(self, object_id: ObjectId) -> CacheEntry:
        """Return the entry for ``object_id``, creating it if absent."""
        try:
            entry = self._entries[object_id]
        except KeyError:
            entry = CacheEntry(object_id)
            self.put(entry)
            return entry
        if self._policy is not None:
            self._policy.record_access(object_id)
        return entry

    def remove(self, object_id: ObjectId) -> Optional[CacheEntry]:
        """Remove and return an entry (None if absent)."""
        entry = self._entries.pop(object_id, None)
        if entry is not None and self._policy is not None:
            self._policy.record_remove(object_id)
        return entry

    def __repr__(self) -> str:
        cap = "inf" if self._capacity is None else str(self._capacity)
        return (
            f"ObjectCache(size={len(self._entries)}, capacity={cap}, "
            f"eviction={self._eviction_name!r}, evictions={self._evictions})"
        )
