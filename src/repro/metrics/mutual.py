"""Ground-truth fidelity metrics for *mutual* consistency.

Temporal (Eq. 4): the cached copies of a and b are Mt-consistent at
time t iff there exist server instants t₁, t₂ with ``S_a(t₁) = P_a(t)``,
``S_b(t₂) = P_b(t)`` and ``|t₁ − t₂| ≤ δ``.  The set of instants at
which the server held a's cached version is that version's *validity
interval* ``[lm, next-update)``; the condition therefore reduces to the
gap between the two validity intervals being at most δ.  For δ = 0 this
is exactly "the objects simultaneously existed on the server at some
point" — the paper's own intuition.  A pair is a group of two: the
check and its fidelity are scored by :mod:`repro.metrics.group`.

Value (Eq. 5): ``|f(S_a(t), S_b(t)) − f(P_a(t), P_b(t))| < δ`` at every
instant.  Both sides are step functions (the server side steps at
updates, the proxy side at polls), so the condition is evaluated
segment-by-segment over the merged event timeline.

Violation counting (Eq. 13 analogue): the condition is checked just
after every completed poll of either member; fidelity is
``1 − violations / polls``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.types import Seconds
from repro.metrics.fidelity import FidelityReport
from repro.traces.model import UpdateTrace

#: (poll_time, value obtained).
ValueFetch = Tuple[Seconds, float]


# ----------------------------------------------------------------------
# Temporal domain (Mt)
# ----------------------------------------------------------------------
def validity_interval(
    trace: UpdateTrace, version_origin: Seconds
) -> Tuple[Seconds, Seconds]:
    """The server-side interval during which a version was current.

    Args:
        trace: The object's true update history.
        version_origin: The version's creation time (its Last-Modified).

    Returns:
        ``(start, end)`` with ``end = +inf`` when the version is still
        current at the end of the trace.
    """
    nxt = trace.next_after(version_origin)
    end = nxt.time if nxt is not None else math.inf
    return (version_origin, end)


# ----------------------------------------------------------------------
# Operational (poll-synchrony) Mt fidelity
# ----------------------------------------------------------------------
#: (poll_time, modified?) — the record poll-synchrony evaluation needs.
SynchronyFetch = Tuple[Seconds, bool]


def mutual_poll_synchrony_fidelity(
    fetches_a: Sequence[SynchronyFetch],
    fetches_b: Sequence[SynchronyFetch],
    delta: Seconds,
) -> FidelityReport:
    """The paper's operational Mt fidelity measure (Section 6.2.2).

    Mutual consistency is enforced by keeping polls of related objects
    in phase when updates occur; correspondingly a *violation* is a poll
    that detects an update while the partner's nearest poll (previous or
    next) is more than δ away.  Under this measure the triggered-poll
    technique has fidelity 1 *by definition* — exactly the property the
    paper states for Figure 5(b) — because every detected update either
    triggers an immediate partner poll or finds one within δ.

    Poll synchrony within δ is *sufficient* for the Eq. 4 ground-truth
    condition at that instant (two versions simultaneously current
    within δ of each other), so this measure never reports a false
    "consistent" at detection points; the stricter ground-truth measure
    (:func:`repro.metrics.group.group_temporal_fidelity`) additionally
    integrates staleness between polls.

    ``out_sync_time`` is reported as 0 here; use the ground-truth
    measure for Eq. 14-style accounting.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    times_a = [t for t, _ in fetches_a]
    times_b = [t for t, _ in fetches_b]
    violations = 0
    violations += _synchrony_violations(fetches_a, times_b, delta)
    violations += _synchrony_violations(fetches_b, times_a, delta)
    polls = len(fetches_a) + len(fetches_b)
    return FidelityReport(
        polls=polls, violations=violations, out_sync_time=0.0, duration=0.0
    )


def _synchrony_violations(
    detections: Sequence[SynchronyFetch],
    partner_times: Sequence[Seconds],
    delta: Seconds,
) -> int:
    import bisect

    count = 0
    for time, modified in detections:
        if not modified:
            continue
        index = bisect.bisect_left(partner_times, time - delta)
        # Is there any partner poll in [time - delta, time + delta]?
        if index < len(partner_times) and partner_times[index] <= time + delta:
            continue
        count += 1
    return count


# ----------------------------------------------------------------------
# Value domain (Mv)
# ----------------------------------------------------------------------
def mutual_value_fidelity(
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
    """Ground-truth Mv fidelity (Eq. 5) for a pair of valued objects.

    Polls are the union of both objects' fetches; a poll is a violation
    if the bound ``|f(S) − f(P)| < δ`` fails at any instant between it
    and the next poll (with the post-poll cached values).
    """
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
    """(bound broken?, stale seconds) over one inter-poll segment.

    The check at ``segment_start`` itself is included — a poll that
    lands while the server-side f is already δ away counts immediately.
    """
    # Server-side step knots within the segment.
    server_events: List[Seconds] = [segment_start]
    server_events.extend(
        u.time for u in trace_a.updates_in(segment_start, segment_end)
    )
    server_events.extend(
        u.time for u in trace_b.updates_in(segment_start, segment_end)
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
        state_a = trace_a.latest_at(knot)
        state_b = trace_b.latest_at(knot)
        if state_a is None or state_b is None:
            continue
        if state_a.value is None or state_b.value is None:
            continue
        f_server = f(state_a.value, state_b.value)
        if abs(f_server - f_proxy) >= delta:
            violated = True
            lo = max(knot, window_start)
            hi = min(nxt, window_end)
            if hi > lo:
                stale += hi - lo
    return violated, stale
