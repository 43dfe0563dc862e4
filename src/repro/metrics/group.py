"""Mutual-consistency metrics generalised to n-object groups.

The paper defines Mt/Mv for pairs "for simplicity, but all our
definitions can be generalized to n objects".  The natural
generalisation of Eq. 4: a group's cached copies are Mt-consistent at
time t iff there exist server instants t₁...tₙ, one per member's cached
version's validity interval, that all fit inside a window of width δ.
For intervals this reduces to::

    max_i(start_i) − min_i(end_i) ≤ δ

i.e. the *spread* between the latest validity start and the earliest
validity end is at most δ.  Pairs recover Eq. 4's interval gap, so the
pair metric is this one called with two members.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.core.types import ObjectId, Seconds
from repro.metrics.fidelity import FidelityReport, TemporalFetch
from repro.metrics.mutual import validity_interval
from repro.traces.model import UpdateTrace


def group_interval_spread(
    intervals: Collection[Tuple[Seconds, Seconds]],
) -> Seconds:
    """The group generalisation of the pairwise interval gap.

    Returns 0 when one instant can be picked inside every interval
    (common overlap); otherwise the minimal window width minus zero —
    concretely ``max(starts) − min(ends)`` clamped at 0.
    """
    if not intervals:
        raise ValueError("need at least one interval")
    latest_start = max(start for start, _ in intervals)
    earliest_end = min(end for _, end in intervals)
    return max(0.0, latest_start - earliest_end)


def group_temporal_fidelity(
    traces: Dict[ObjectId, UpdateTrace],
    fetches: Dict[ObjectId, Sequence[TemporalFetch]],
    delta: Seconds,
    *,
    start: Optional[Seconds] = None,
    end: Optional[Seconds] = None,
) -> FidelityReport:
    """Ground-truth Mt fidelity for an n-object group.

    The group condition is evaluated after every poll of any member
    and the out-of-sync time integrates the periods where the condition
    fails.  A pair is a group of two.

    Args:
        traces: True update histories, keyed by member.
        fetches: Each member's (poll time, obtained Last-Modified)
            pairs, ascending.
        delta: The mutual tolerance δ (seconds).  δ = 0 is allowed.
        start, end: Evaluation window; defaults to the union of the
            trace windows.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    if set(traces) != set(fetches):
        raise ValueError("traces and fetches must cover the same objects")
    if len(traces) < 2:
        raise ValueError("a group needs at least two members")

    window_start = (
        start
        if start is not None
        else min(t.start_time for t in traces.values())
    )
    window_end = (
        end if end is not None else max(t.end_time for t in traces.values())
    )

    # Merge per-object fetch sequences into one event timeline.  Each
    # event switches one member's cached-version origin.  Events sharing
    # an exact timestamp (a detected update plus its synchronously
    # triggered partner polls) are applied together and judged once —
    # a violation "fixed" at the same instant it could first be observed
    # never existed.
    events: List[Tuple[Seconds, ObjectId, Seconds]] = []
    for object_id, object_fetches in fetches.items():
        events.extend((t, object_id, lm) for t, lm in object_fetches)
    events.sort(key=lambda e: e[0])

    polls = len(events)
    violations = 0
    out_sync = 0.0
    # Each member's cached version and its validity interval, which is
    # recomputed only when a poll brings a different version.
    origins: Dict[ObjectId, Seconds] = {}
    intervals: Dict[ObjectId, Tuple[Seconds, Seconds]] = {}

    index = 0
    total = len(events)
    while index < total:
        time = events[index][0]
        group_end = index
        while group_end < total and events[group_end][0] == time:
            _, object_id, last_modified = events[group_end]
            if origins.get(object_id) != last_modified:
                origins[object_id] = last_modified
                intervals[object_id] = validity_interval(
                    traces[object_id], last_modified
                )
            group_end += 1
        group_size = group_end - index
        segment_end = events[group_end][0] if group_end < total else window_end
        index = group_end
        if len(intervals) < len(traces):
            continue  # some member never fetched yet
        if group_interval_spread(intervals.values()) > delta:
            violations += group_size
            # Within (time, segment_end) the cached versions are fixed,
            # and validity intervals depend only on the traces, so
            # consistency is constant over the segment.
            if segment_end > time:
                lo = max(time, window_start)
                hi = min(segment_end, window_end)
                if hi > lo:
                    out_sync += hi - lo

    return FidelityReport(
        polls=polls,
        violations=violations,
        out_sync_time=out_sync,
        duration=window_end - window_start,
    )
