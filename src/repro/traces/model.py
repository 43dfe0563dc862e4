"""Trace data model.

The paper's evaluation is trace-driven: each object is driven by a
sequence of timestamped updates.  Temporal-domain traces carry only
update instants (news pages); value-domain traces carry an instant and
a new value (stock ticks).  Both are represented by ``UpdateTrace``:
a column of update times and a column of values (``None`` for a
temporal trace), indexed by version.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence

from repro.core.errors import TraceFormatError, TraceOrderingError
from repro.core.types import ObjectId, Seconds


@dataclass(frozen=True)
class TraceMetadata:
    """Descriptive metadata attached to a trace.

    Mirrors the columns of the paper's Tables 2 and 3: a human-readable
    name, the observation window, and (for valued traces) the value unit.
    """

    name: str
    description: str = ""
    source: str = "synthetic"
    value_unit: Optional[str] = None


class UpdateTrace:
    """An immutable, time-ordered update history of one object.

    Stored as two index-aligned columns, as on the origin: update *i*
    happened at ``times[i]``, set ``values[i]`` and created version *i*.
    Every time is finite, >= 0 and strictly greater than the one before
    it (two updates cannot share an instant for a single object); every
    value is finite.

    Attributes:
        times: Every update's time, ascending — the column scorers walk
            with a cursor.  Read-only by contract.
        values: Every update's value (all ``None`` for a temporal trace),
            index-aligned with ``times``.  Read-only by contract.
        has_values: True for a non-empty value-domain trace.
    """

    def __init__(
        self,
        object_id: ObjectId,
        times: Iterable[Seconds],
        values: Optional[Iterable[float]] = None,
        *,
        start_time: Seconds = 0.0,
        end_time: Optional[Seconds] = None,
        metadata: Optional[TraceMetadata] = None,
    ) -> None:
        self._object_id = object_id
        self._metadata = metadata or TraceMetadata(name=str(object_id))
        self.times: List[Seconds] = list(times)
        prev = 0.0
        for index, t in enumerate(self.times):
            if not 0.0 <= t < math.inf:
                raise TraceFormatError(
                    f"update {index}: time must be finite and >= 0, got {t}"
                )
            if index and not t > prev:
                raise TraceOrderingError(index, prev, t)
            prev = t
        self.values: List[Optional[float]]
        if values is None:
            self.values = [None] * len(self.times)
        else:
            self.values = list(values)
            if len(self.values) != len(self.times):
                raise TraceFormatError(
                    f"{len(self.values)} values for {len(self.times)} times"
                )
            for index, value in enumerate(self.values):
                if value is None or not math.isfinite(value):
                    raise TraceFormatError(
                        f"update {index}: value must be finite, got {value}"
                    )
        self.has_values: bool = values is not None and bool(self.times)
        if self.times and start_time > self.times[0]:
            raise TraceFormatError(
                f"start_time {start_time} exceeds first update at {self.times[0]}"
            )
        self._start_time = start_time
        last = self.times[-1] if self.times else start_time
        self._end_time = end_time if end_time is not None else last
        if not math.isfinite(self._end_time):
            raise TraceFormatError(f"end_time must be finite, got {self._end_time}")
        if self._end_time < last:
            raise TraceFormatError(
                f"end_time {self._end_time} precedes last update at {last}"
            )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def object_id(self) -> ObjectId:
        return self._object_id

    @property
    def metadata(self) -> TraceMetadata:
        return self._metadata

    @property
    def start_time(self) -> Seconds:
        """Beginning of the observation window."""
        return self._start_time

    @property
    def end_time(self) -> Seconds:
        """End of the observation window (>= last update time)."""
        return self._end_time

    @property
    def duration(self) -> Seconds:
        return self._end_time - self._start_time

    @property
    def update_count(self) -> int:
        return len(self.times)

    def __len__(self) -> int:
        return len(self.times)

    # ------------------------------------------------------------------
    # Queries used by the simulator and metrics
    # ------------------------------------------------------------------
    def next_after(self, t: Seconds) -> Optional[Seconds]:
        """Return the time of the first update strictly after ``t``."""
        index = bisect.bisect_right(self.times, t)
        return self.times[index] if index < len(self.times) else None

    def value_at(self, t: Seconds, *, default: Optional[float] = None) -> Optional[float]:
        """Return the object's value at time ``t`` (last tick at or before)."""
        index = bisect.bisect_right(self.times, t)
        return self.values[index - 1] if index else default

    def __repr__(self) -> str:
        return (
            f"UpdateTrace({self._object_id!r}, updates={len(self.times)}, "
            f"window=[{self._start_time}, {self._end_time}])"
        )


def trace_from_times(
    object_id: ObjectId,
    times: Iterable[Seconds],
    *,
    start_time: Seconds = 0.0,
    end_time: Optional[Seconds] = None,
    metadata: Optional[TraceMetadata] = None,
) -> UpdateTrace:
    """Build a temporal-domain trace from bare update instants."""
    return UpdateTrace(
        object_id,
        sorted(times),
        start_time=start_time,
        end_time=end_time,
        metadata=metadata,
    )


def trace_from_ticks(
    object_id: ObjectId,
    ticks: Iterable[tuple[Seconds, float]],
    *,
    start_time: Seconds = 0.0,
    end_time: Optional[Seconds] = None,
    metadata: Optional[TraceMetadata] = None,
) -> UpdateTrace:
    """Build a value-domain trace from (time, value) pairs."""
    ordered = sorted(ticks, key=lambda tv: tv[0])
    return UpdateTrace(
        object_id,
        [t for t, _ in ordered],
        [v for _, v in ordered],
        start_time=start_time,
        end_time=end_time,
        metadata=metadata,
    )


def select_traces(
    catalogue: Mapping[str, UpdateTrace], keys: Sequence[str], kind: str
) -> List[UpdateTrace]:
    """A catalogue's traces for ``keys``, in key order.

    An unknown key raises ``KeyError`` naming it and the keys on offer.
    """
    try:
        return [catalogue[key] for key in keys]
    except KeyError as exc:
        raise KeyError(
            f"unknown {kind} trace {exc.args[0]!r}; "
            f"available: {sorted(catalogue)}"
        ) from None
