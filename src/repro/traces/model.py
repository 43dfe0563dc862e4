"""Trace data model.

The paper's evaluation is trace-driven: each object is driven by a
sequence of timestamped updates.  Temporal-domain traces carry only
update instants (news pages); value-domain traces carry an instant and
a new value (stock ticks).  Both are represented by ``UpdateTrace``,
whose records optionally carry values.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.core.errors import TraceFormatError, TraceOrderingError
from repro.core.types import ObjectId, Seconds, UpdateRecord


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
    """An immutable, time-ordered sequence of updates to one object.

    Records must be strictly increasing in time (two updates cannot share
    an instant for a single object) and version numbers must increase by
    exactly one per record, starting from the first record's version.

    Attributes:
        times: Every record's time, ascending — the column scorers walk
            with a cursor.  Read-only by contract.
        values: Every record's value (``None`` for a temporal record),
            index-aligned with ``times``.  Read-only by contract.
        has_values: True if every record carries a value (a
            value-domain trace).
    """

    def __init__(
        self,
        object_id: ObjectId,
        records: Iterable[UpdateRecord],
        *,
        start_time: Seconds = 0.0,
        end_time: Optional[Seconds] = None,
        metadata: Optional[TraceMetadata] = None,
    ) -> None:
        self._object_id = object_id
        self._records: List[UpdateRecord] = list(records)
        self._metadata = metadata or TraceMetadata(name=str(object_id))
        self._validate()
        self._start_time = start_time
        if self._records and start_time > self._records[0].time:
            raise TraceFormatError(
                f"start_time {start_time} exceeds first update at "
                f"{self._records[0].time}"
            )
        last = self._records[-1].time if self._records else start_time
        self._end_time = end_time if end_time is not None else last
        if self._end_time < last:
            raise TraceFormatError(
                f"end_time {self._end_time} precedes last update at {last}"
            )
        self.times: List[Seconds] = [r.time for r in self._records]
        self.values: List[Optional[float]] = [r.value for r in self._records]
        self.has_values: bool = bool(self.values) and None not in self.values

    def _validate(self) -> None:
        prev_time: Optional[Seconds] = None
        prev_version: Optional[int] = None
        for index, record in enumerate(self._records):
            if prev_time is not None and record.time <= prev_time:
                raise TraceOrderingError(index, prev_time, record.time)
            if prev_version is not None and record.version != prev_version + 1:
                raise TraceFormatError(
                    f"record {index}: version {record.version} does not follow "
                    f"{prev_version} (versions must increment by one)"
                )
            prev_time = record.time
            prev_version = record.version

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
    def records(self) -> Sequence[UpdateRecord]:
        return tuple(self._records)

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
        return len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> UpdateRecord:
        return self._records[index]

    # ------------------------------------------------------------------
    # Queries used by the simulator and metrics
    # ------------------------------------------------------------------
    def latest_at(self, t: Seconds) -> Optional[UpdateRecord]:
        """Return the most recent update at or before time ``t``."""
        index = bisect.bisect_right(self.times, t)
        if index == 0:
            return None
        return self._records[index - 1]

    def next_after(self, t: Seconds) -> Optional[UpdateRecord]:
        """Return the first update strictly after time ``t``."""
        index = bisect.bisect_right(self.times, t)
        if index >= len(self._records):
            return None
        return self._records[index]

    def value_at(self, t: Seconds, *, default: Optional[float] = None) -> Optional[float]:
        """Return the object's value at time ``t`` (last tick at or before)."""
        record = self.latest_at(t)
        if record is None:
            return default
        return record.value

    def version_at(self, t: Seconds) -> Optional[int]:
        """Return the object's version at time ``t``, or None if unborn."""
        record = self.latest_at(t)
        return record.version if record is not None else None

    # ------------------------------------------------------------------
    # Derived traces
    # ------------------------------------------------------------------
    def shifted(self, offset: Seconds) -> "UpdateTrace":
        """Return a copy with all times shifted by ``offset`` (>= 0 result)."""
        if self._start_time + offset < 0:
            raise ValueError(
                f"shift by {offset} would move start before t=0"
            )
        return UpdateTrace(
            self._object_id,
            [
                UpdateRecord(r.time + offset, r.version, r.value)
                for r in self._records
            ],
            start_time=self._start_time + offset,
            end_time=self._end_time + offset,
            metadata=self._metadata,
        )

    def clipped(self, start: Seconds, end: Seconds) -> "UpdateTrace":
        """Return the sub-trace covering [start, end]; versions renumbered."""
        if end <= start:
            raise ValueError(f"end ({end}) must exceed start ({start})")
        selected = [r for r in self._records if start <= r.time <= end]
        renumbered = [
            UpdateRecord(r.time, i, r.value) for i, r in enumerate(selected)
        ]
        return UpdateTrace(
            self._object_id,
            renumbered,
            start_time=start,
            end_time=end,
            metadata=self._metadata,
        )

    def __repr__(self) -> str:
        return (
            f"UpdateTrace({self._object_id!r}, updates={len(self._records)}, "
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
    records = [UpdateRecord(t, i) for i, t in enumerate(sorted(times))]
    return UpdateTrace(
        object_id,
        records,
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
    records = [UpdateRecord(t, i, v) for i, (t, v) in enumerate(ordered)]
    return UpdateTrace(
        object_id,
        records,
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
