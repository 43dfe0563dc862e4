"""Trace characterisation — the columns of the paper's Tables 2 and 3.

Given an :class:`UpdateTrace`, compute the summary statistics the paper
reports for its workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.types import HOUR, Seconds
from repro.traces.model import UpdateTrace


@dataclass(frozen=True)
class TemporalTraceSummary:
    """The Table 2 row for a temporal-domain trace."""

    name: str
    duration: Seconds
    update_count: int
    mean_update_interval: Seconds

    @property
    def duration_hours(self) -> float:
        return self.duration / HOUR


@dataclass(frozen=True)
class ValueTraceSummary:
    """The Table 3 row for a value-domain trace."""

    name: str
    duration: Seconds
    update_count: int
    min_value: float
    max_value: float

    @property
    def value_range(self) -> float:
        return self.max_value - self.min_value


def summarize_temporal(trace: UpdateTrace) -> TemporalTraceSummary:
    """Compute the Table 2 columns for a trace."""
    count = trace.update_count
    mean_interval = trace.duration / count if count else math.inf
    return TemporalTraceSummary(
        name=trace.metadata.name,
        duration=trace.duration,
        update_count=count,
        mean_update_interval=mean_interval,
    )


def summarize_value(trace: UpdateTrace) -> ValueTraceSummary:
    """Compute the Table 3 columns for a valued trace."""
    if not trace.has_values:
        raise ValueError(
            f"trace {trace.object_id!r} has no values; "
            "value summaries need a value-domain trace"
        )
    return ValueTraceSummary(
        name=trace.metadata.name,
        duration=trace.duration,
        update_count=trace.update_count,
        min_value=min(trace.values),  # type: ignore[type-var]
        max_value=max(trace.values),  # type: ignore[type-var]
    )
