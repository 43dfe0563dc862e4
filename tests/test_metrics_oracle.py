"""The one-pass scorers against the per-segment bisect versions they replaced.

``mutual_value_fidelity`` and ``group_temporal_fidelity`` walk each
trace forward once with a cursor.  The versions below re-derived every
segment from bisects — two ``updates_in`` slices and a ``latest_at``
per knot for Mv, and every member's validity interval on every event
group for Mt.  They are kept here verbatim as the oracle only.  The
trace queries they used are gone from ``UpdateTrace``, so
:func:`updates_in`, :func:`latest_at` and :func:`next_after` re-derive
them here, each by its own bisect over the trace's ``times`` /
``values`` columns.  The properties demand ``==`` on the whole report,
not approximate equality: both sides must add the same floats in the
same order.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.types import ObjectId, Seconds
from repro.metrics.fidelity import FidelityReport, TemporalFetch
from repro.metrics.group import group_interval_spread, group_temporal_fidelity
from repro.metrics.mutual import ValueFetch, mutual_value_fidelity
from repro.traces.model import UpdateTrace, trace_from_ticks, trace_from_times

A, B, C = ObjectId("a"), ObjectId("b"), ObjectId("c")


Update = Tuple[Seconds, Optional[float]]


def updates_in(trace: UpdateTrace, start: Seconds, end: Seconds) -> List[Update]:
    """(time, value) of the updates with start < time <= end."""
    lo = bisect.bisect_right(trace.times, start)
    hi = bisect.bisect_right(trace.times, end)
    return list(zip(trace.times[lo:hi], trace.values[lo:hi]))


def latest_at(trace: UpdateTrace, t: Seconds) -> Optional[Update]:
    """(time, value) of the last update at or before ``t``, if any."""
    index = bisect.bisect_right(trace.times, t)
    return (trace.times[index - 1], trace.values[index - 1]) if index else None


def next_after(trace: UpdateTrace, t: Seconds) -> Optional[Seconds]:
    """Time of the first update strictly after ``t``, if any."""
    index = bisect.bisect_right(trace.times, t)
    return trace.times[index] if index < len(trace.times) else None


# ----------------------------------------------------------------------
# Oracle: Mv (metrics/mutual.py before the sweep)
# ----------------------------------------------------------------------
def oracle_mutual_value_fidelity(
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    fetches_a: Sequence[ValueFetch],
    fetches_b: Sequence[ValueFetch],
    delta: float,
    *,
    f: Callable[[float, float], float] = lambda x, y: x - y,
    start: Optional[Seconds] = None,
    end: Optional[Seconds] = None,
) -> FidelityReport:
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    window_start = (
        start if start is not None else min(trace_a.start_time, trace_b.start_time)
    )
    window_end = (
        end if end is not None else max(trace_a.end_time, trace_b.end_time)
    )

    # Proxy-side step events.
    events: List[Tuple[Seconds, str, float]] = []
    events.extend((t, "a", v) for t, v in fetches_a)
    events.extend((t, "b", v) for t, v in fetches_b)
    events.sort(key=lambda e: e[0])

    polls = len(events)
    violations = 0
    out_sync = 0.0
    cached_a: Optional[float] = None
    cached_b: Optional[float] = None

    for index, (time, side, value) in enumerate(events):
        if side == "a":
            cached_a = value
        else:
            cached_b = value
        segment_end = events[index + 1][0] if index + 1 < len(events) else window_end
        if cached_a is None or cached_b is None:
            continue
        f_proxy = f(cached_a, cached_b)
        violated, stale = _mv_segment_stats(
            trace_a, trace_b, time, segment_end, f_proxy, delta, f,
            window_start, window_end,
        )
        if violated:
            violations += 1
        out_sync += stale

    return FidelityReport(
        polls=polls,
        violations=violations,
        out_sync_time=out_sync,
        duration=window_end - window_start,
    )


def _mv_segment_stats(
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    segment_start: Seconds,
    segment_end: Seconds,
    f_proxy: float,
    delta: float,
    f: Callable[[float, float], float],
    window_start: Seconds,
    window_end: Seconds,
) -> Tuple[bool, Seconds]:
    # Server-side step knots within the segment.
    server_events: List[Seconds] = [segment_start]
    server_events.extend(
        u for u, _ in updates_in(trace_a, segment_start, segment_end)
    )
    server_events.extend(
        u for u, _ in updates_in(trace_b, segment_start, segment_end)
    )
    server_events = sorted(set(server_events))
    server_events.append(segment_end)

    violated = False
    stale = 0.0
    for knot, nxt in zip(server_events, server_events[1:]):
        if nxt <= knot:
            # Zero-length sub-interval: an update landing exactly at the
            # segment boundary is repaired by the poll at that same
            # instant and never observable.
            continue
        state_a = latest_at(trace_a, knot)
        state_b = latest_at(trace_b, knot)
        if state_a is None or state_b is None:
            continue
        if state_a[1] is None or state_b[1] is None:
            continue
        f_server = f(state_a[1], state_b[1])
        if abs(f_server - f_proxy) >= delta:
            violated = True
            lo = max(knot, window_start)
            hi = min(nxt, window_end)
            if hi > lo:
                stale += hi - lo
    return violated, stale


# ----------------------------------------------------------------------
# Oracle: group Mt (metrics/group.py before the cached intervals)
# ----------------------------------------------------------------------
def oracle_validity_interval(
    trace: UpdateTrace, version_origin: Seconds
) -> Tuple[Seconds, Seconds]:
    nxt = next_after(trace, version_origin)
    end = nxt if nxt is not None else math.inf
    return (version_origin, end)


def oracle_group_mutually_consistent_at(
    traces: Dict[ObjectId, UpdateTrace],
    origins: Dict[ObjectId, Seconds],
    delta: Seconds,
) -> bool:
    intervals = [
        oracle_validity_interval(traces[object_id], origin)
        for object_id, origin in origins.items()
    ]
    return group_interval_spread(intervals) <= delta


def oracle_group_temporal_fidelity(
    traces: Dict[ObjectId, UpdateTrace],
    fetches: Dict[ObjectId, Sequence[TemporalFetch]],
    delta: Seconds,
    *,
    start: Optional[Seconds] = None,
    end: Optional[Seconds] = None,
) -> FidelityReport:
    window_start = (
        start
        if start is not None
        else min(t.start_time for t in traces.values())
    )
    window_end = (
        end if end is not None else max(t.end_time for t in traces.values())
    )

    events: List[Tuple[Seconds, ObjectId, Seconds]] = []
    for object_id, object_fetches in fetches.items():
        events.extend((t, object_id, lm) for t, lm in object_fetches)
    events.sort(key=lambda e: e[0])

    polls = len(events)
    violations = 0
    out_sync = 0.0
    origins: Dict[ObjectId, Seconds] = {}

    index = 0
    total = len(events)
    while index < total:
        time = events[index][0]
        group_end = index
        while group_end < total and events[group_end][0] == time:
            _, object_id, last_modified = events[group_end]
            origins[object_id] = last_modified
            group_end += 1
        group_size = group_end - index
        segment_end = events[group_end][0] if group_end < total else window_end
        index = group_end
        if len(origins) < len(traces):
            continue  # some member never fetched yet
        consistent = oracle_group_mutually_consistent_at(traces, origins, delta)
        if not consistent:
            violations += group_size
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


# ----------------------------------------------------------------------
# Draws
# ----------------------------------------------------------------------
# Every instant is a multiple of 0.25 s on [0, 30], so ticks, polls of
# both members and the window edges collide often: equal poll times
# across members, updates exactly at poll instants, polls before the
# first tick and after the trace end are all common draws.  Traces run
# on [1, 25]; a window is either the traces' own or a narrower one.
instants = st.integers(min_value=0, max_value=120).map(lambda k: k * 0.25)
tick_instants = st.integers(min_value=4, max_value=100).map(lambda k: k * 0.25)
levels = st.integers(min_value=-6, max_value=6).map(float)
deltas = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
TRACE_START, TRACE_END = 1.0, 25.0


def valued_trace(object_id, ticks):
    return trace_from_ticks(
        object_id, ticks, start_time=TRACE_START, end_time=TRACE_END
    )


ticks = st.lists(
    st.tuples(tick_instants, levels), min_size=1, max_size=12,
    unique_by=lambda tv: tv[0],
).map(sorted)


@st.composite
def windows(draw):
    """(start, end): the traces' own window, or one narrower than it."""
    if draw(st.booleans()):
        return None, None
    lo, hi = sorted(draw(st.lists(tick_instants, min_size=2, max_size=2)))
    return lo, hi + 0.25


def fetched(draw, ticks_of, polls):
    """Value fetches at ``polls``: each the true value then, or any level.

    A fresh fetch is what a poll returns, so a segment is violated only
    where the origin moves — an update exactly at a poll instant then
    decides the segment's first knot.
    """
    fetches = []
    for poll in polls:
        true = [v for t, v in ticks_of if t <= poll]
        fresh = true and draw(st.booleans())
        fetches.append((poll, true[-1] if fresh else draw(levels)))
    return fetches


def poll_instants(ticks_of):
    """Poll times: any instant, or one of the trace's own tick instants."""
    return st.lists(
        st.one_of(instants, st.sampled_from([t for t, _ in ticks_of])),
        max_size=12,
    ).map(sorted)


@st.composite
def mutual_value_case(draw):
    """Two valued traces; b polls some of a's instants again."""
    ticks_a, ticks_b = draw(ticks), draw(ticks)
    polls_a = draw(poll_instants(ticks_a + ticks_b))
    echoed = draw(st.lists(st.sampled_from(polls_a), max_size=4)) if polls_a else []
    polls_b = sorted(draw(poll_instants(ticks_a + ticks_b)) + echoed)
    return (
        ticks_a, ticks_b,
        fetched(draw, ticks_a, polls_a), fetched(draw, ticks_b, polls_b),
    )


@st.composite
def temporal_group(draw):
    """2-3 temporal traces and lagged or arbitrary Last-Modified fetches."""
    members = [A, B, C][: draw(st.integers(min_value=2, max_value=3))]
    traces, fetches = {}, {}
    for member in members:
        times = draw(st.lists(tick_instants, max_size=10, unique=True))
        trace = trace_from_times(
            member, times, start_time=TRACE_START, end_time=TRACE_END
        )
        origins = [TRACE_START] + sorted(times)
        polls = sorted(draw(st.lists(instants, max_size=10)))
        traces[member] = trace
        fetches[member] = [(poll, draw(st.sampled_from(origins))) for poll in polls]
    return traces, fetches


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
class TestSweepEqualsOracle:
    @given(mutual_value_case(), deltas, windows())
    @example(  # a tick at a shared poll, polls before the first tick and past the end
        ([(2.0, 4.0), (5.0, 0.0)], [(2.0, 0.0)],
         [(0.5, 0.0), (5.0, 0.0), (27.0, 0.0)], [(0.5, 0.0), (5.0, 0.0)]),
        1.0, (None, None),
    )
    @example(  # both members first cached at an update instant
        ([(2.0, 4.0), (5.0, 0.0)], [(2.0, 0.0)],
         [(5.0, 0.0), (9.0, 0.0)], [(5.0, 0.0)]),
        1.0, (None, None),
    )
    @example(  # narrower window; an update exactly at a segment end
        ([(2.0, 0.0), (5.0, 4.0), (9.0, -3.0)], [(3.0, 1.0)],
         [(2.0, 0.0), (9.0, 0.0)], [(3.0, 1.0), (5.0, 1.0)]),
        2.0, (4.0, 8.25),
    )
    @settings(max_examples=100, deadline=None)
    def test_mutual_value_fidelity(self, case, delta, window):
        ticks_a, ticks_b, fetches_a, fetches_b = case
        trace_a, trace_b = valued_trace(A, ticks_a), valued_trace(B, ticks_b)
        start, end = window
        for f in (lambda x, y: x - y, lambda x, y: x + 2 * y):
            assert mutual_value_fidelity(
                trace_a, trace_b, fetches_a, fetches_b, delta,
                f=f, start=start, end=end,
            ) == oracle_mutual_value_fidelity(
                trace_a, trace_b, fetches_a, fetches_b, delta,
                f=f, start=start, end=end,
            )

    @given(temporal_group(), st.sampled_from([0.0, 0.5, 2.0, 5.0]), windows())
    @settings(max_examples=100, deadline=None)
    def test_group_temporal_fidelity(self, group, delta, window):
        traces, fetches = group
        start, end = window
        assert group_temporal_fidelity(
            traces, fetches, delta, start=start, end=end
        ) == oracle_group_temporal_fidelity(
            traces, fetches, delta, start=start, end=end
        )
