"""Server-side object state.

A :class:`ServerObject` is the authoritative copy of one web object: it
records every applied update (time, version, value) and answers the
queries the HTTP layer and the metrics need — current state, state at an
arbitrary past instant, and modification history.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence

from repro.core.types import ObjectId, ObjectSnapshot, Seconds, UpdateRecord


class ServerObject:
    """The authoritative, update-append-only state of one object.

    Objects may be *born* with an initial version (version 0 at creation
    time) or created empty and populated by the first update.  The paper
    sets "the version number ... to zero when the object is created at
    the server" and increments on each update.
    """

    def __init__(
        self,
        object_id: ObjectId,
        *,
        created_at: Seconds = 0.0,
        initial_value: Optional[float] = None,
    ) -> None:
        self._object_id = object_id
        self._updates: List[UpdateRecord] = [
            UpdateRecord(created_at, 0, initial_value)
        ]
        self._times: List[Seconds] = [created_at]

    @property
    def object_id(self) -> ObjectId:
        return self._object_id

    @property
    def created_at(self) -> Seconds:
        return self._updates[0].time

    @property
    def current_version(self) -> int:
        return self._updates[-1].version

    @property
    def current_value(self) -> Optional[float]:
        return self._updates[-1].value

    @property
    def last_modified(self) -> Seconds:
        return self._updates[-1].time

    @property
    def update_count(self) -> int:
        """Number of updates applied after creation."""
        return len(self._updates) - 1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_update(self, time: Seconds, value: Optional[float] = None) -> UpdateRecord:
        """Apply an update at ``time``; returns the new record.

        Updates must be strictly after the previous modification.
        """
        last = self._updates[-1]
        if time <= last.time:
            raise ValueError(
                f"update at t={time} must be after last modification "
                f"at t={last.time} for {self._object_id!r}"
            )
        record = UpdateRecord(time, last.version + 1, value)
        self._updates.append(record)
        self._times.append(time)
        return record

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def snapshot(self, now: Seconds) -> ObjectSnapshot:
        """The object's current state, stamped with its Last-Modified."""
        latest = self._updates[-1]
        if now < latest.time:
            raise ValueError(
                f"snapshot time {now} precedes last modification {latest.time}"
            )
        return ObjectSnapshot(
            object_id=self._object_id,
            version=latest.version,
            last_modified=latest.time,
            value=latest.value,
        )

    def state_at(self, t: Seconds) -> Optional[ObjectSnapshot]:
        """The object's state as of time ``t`` (None if not yet created)."""
        index = bisect.bisect_right(self._times, t)
        if index == 0:
            return None
        record = self._updates[index - 1]
        return ObjectSnapshot(
            object_id=self._object_id,
            version=record.version,
            last_modified=record.time,
            value=record.value,
        )

    def modification_times(self) -> Sequence[Seconds]:
        """All modification times, ascending, including creation."""
        return tuple(self._times)

    def modification_times_view(self) -> Sequence[Seconds]:
        """Zero-copy view of the modification times (read-only!).

        The HTTP layer consults the history on every poll; copying the
        whole list per request made history serving O(updates) before
        the response is even built.  Callers must not mutate the
        returned sequence.
        """
        return self._times

    def value_at(self, t: Seconds) -> Optional[float]:
        """The object's value at time ``t`` (None if unborn or unvalued)."""
        state = self.state_at(t)
        return state.value if state is not None else None

    def __repr__(self) -> str:
        return (
            f"ServerObject({self._object_id!r}, version={self.current_version}, "
            f"last_modified={self.last_modified})"
        )
