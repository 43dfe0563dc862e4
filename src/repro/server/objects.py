"""Server-side object state.

A :class:`ServerObject` is the authoritative copy of one web object:
two append-only lists, ``times`` and ``values``, whose index is the
version.  Version 0 is the creation; :meth:`OriginServer.apply_update
<repro.server.origin.OriginServer.apply_update>` is the lists' one
writer and appends one entry to each per update, so applying an update
builds no record.  The queries the HTTP layer and the metrics need —
current state, state at an arbitrary past instant, modification
history — read the two lists.
"""

from __future__ import annotations

import bisect
from typing import List, Optional

from repro.core.types import ObjectId, ObjectSnapshot, Seconds


class ServerObject:
    """The authoritative, update-append-only state of one object.

    The paper sets "the version number ... to zero when the object is
    created at the server" and increments it on each update, so version
    ``v`` was created at ``times[v]`` with value ``values[v]``, and the
    current version is ``len(times) - 1``.

    Attributes:
        object_id: The object's identifier.
        times: Modification times, strictly ascending, creation first.
            Also the Section 5.1 history a server with the extension
            serves, read in place.  Read-only outside the origin server.
        values: The value of each version (``None`` for objects without
            one), aligned with ``times``.  Read-only outside the origin
            server.
    """

    __slots__ = ("object_id", "times", "values")

    def __init__(
        self,
        object_id: ObjectId,
        *,
        created_at: Seconds = 0.0,
        initial_value: Optional[float] = None,
    ) -> None:
        self.object_id = object_id
        self.times: List[Seconds] = [created_at]
        self.values: List[Optional[float]] = [initial_value]

    @property
    def current_version(self) -> int:
        return len(self.times) - 1

    @property
    def current_value(self) -> Optional[float]:
        return self.values[-1]

    @property
    def last_modified(self) -> Seconds:
        return self.times[-1]

    def state_at(self, t: Seconds) -> Optional[ObjectSnapshot]:
        """The object's state as of time ``t`` (None if not yet created)."""
        version = bisect.bisect_right(self.times, t) - 1
        if version < 0:
            return None
        return ObjectSnapshot(
            self.object_id, version, self.times[version], self.values[version]
        )

    def __repr__(self) -> str:
        return (
            f"ServerObject({self.object_id!r}, version={self.current_version}, "
            f"last_modified={self.last_modified})"
        )
