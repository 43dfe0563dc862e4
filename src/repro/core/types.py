"""Shared primitive types used across the reproduction.

The paper reasons about *objects* cached at a *proxy* and updated at an
*origin server*.  Each object has a monotonically increasing version
number (incremented on every server-side update) and, for value-domain
experiments, a numeric value (e.g. a stock price).  This module defines
small, immutable records for these concepts so that every other module
shares a single vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NewType, Optional

#: Simulation time, in seconds, as a float.  The simulation clock starts
#: at zero; wall-clock anchoring (for diurnal patterns) is handled by the
#: trace generators, which decide what "time 0" means.
Seconds = float

#: Identifier of a cached/served web object (e.g. a URL).
ObjectId = NewType("ObjectId", str)

#: Identifier of a group of mutually related objects.
GroupId = NewType("GroupId", str)

#: Version numbers start at zero on object creation and increment by one
#: on each update (paper, Section 2).
Version = int

# Named time constants used throughout the paper's evaluation.
MINUTE: Seconds = 60.0
HOUR: Seconds = 3600.0
DAY: Seconds = 86400.0


class ObjectSnapshot:
    """The state of an object as observed at a specific instant.

    A snapshot captures what a poll returns: the version, the time that
    version was created at the server (its *origination time*, i.e. the
    HTTP ``Last-Modified`` timestamp), and the value if any.

    Implemented as an immutable-by-convention ``__slots__`` record (one
    is allocated per simulated poll and per server-state query, so
    construction is on the simulation's hot path).
    """

    __slots__ = ("object_id", "version", "last_modified", "value")

    def __init__(
        self,
        object_id: ObjectId,
        version: Version,
        last_modified: Seconds,
        value: Optional[float] = None,
    ) -> None:
        self.object_id = object_id
        self.version = version
        self.last_modified = last_modified
        self.value = value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectSnapshot):
            return NotImplemented
        return (
            self.object_id == other.object_id
            and self.version == other.version
            and self.last_modified == other.last_modified
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.object_id, self.version, self.last_modified, self.value))

    def __repr__(self) -> str:
        return (
            f"ObjectSnapshot(object_id={self.object_id!r}, "
            f"version={self.version!r}, last_modified={self.last_modified!r}, "
            f"value={self.value!r})"
        )


@dataclass
class TTRBounds:
    """Lower and upper bounds on the time-to-refresh (paper Section 3.1).

    ``TTR = max(ttr_min, min(ttr_max, TTR))`` after every adaptation.
    Typically ``ttr_min`` is set to Δ for temporal consistency, since Δ
    is the minimum polling interval needed to maintain the guarantee.
    """

    ttr_min: Seconds
    ttr_max: Seconds

    def __post_init__(self) -> None:
        if not self.ttr_min > 0:  # a NaN bound fails too
            raise ValueError(f"ttr_min must be positive, got {self.ttr_min}")
        if not self.ttr_max >= self.ttr_min:
            raise ValueError(
                f"ttr_max ({self.ttr_max}) must be >= ttr_min ({self.ttr_min})"
            )

    def clamp(self, ttr: Seconds) -> Seconds:
        """Constrain a TTR value to [ttr_min, ttr_max]."""
        return max(self.ttr_min, min(self.ttr_max, ttr))


@dataclass(frozen=True)
class GroupSpec:
    """A group of mutually related objects with its tolerance δ.

    Groups come from user specification or from syntactic relation
    extraction (paper Section 5.2); both feed this common record.
    """

    group_id: GroupId
    members: tuple[ObjectId, ...]
    mutual_delta: float

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError(
                f"group {self.group_id!r} needs >= 2 members, "
                f"got {len(self.members)}"
            )
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"group {self.group_id!r} has duplicate members")
        if self.mutual_delta < 0:
            raise ValueError(
                f"mutual_delta must be non-negative, got {self.mutual_delta}"
            )

    def partners_of(self, object_id: ObjectId) -> tuple[ObjectId, ...]:
        """Return the other members of the group."""
        if object_id not in self.members:
            raise KeyError(f"{object_id!r} is not in group {self.group_id!r}")
        return tuple(m for m in self.members if m != object_id)


def require_finite(name: str, value: float) -> float:
    """Validate that a numeric parameter is finite; return it unchanged."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def require_positive(name: str, value: float) -> float:
    """Validate that a numeric parameter is finite and > 0."""
    require_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def require_fraction(name: str, value: float, *, inclusive: bool = True) -> float:
    """Validate that a parameter lies in [0, 1] (or (0, 1) if exclusive)."""
    require_finite(name, value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    else:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value
