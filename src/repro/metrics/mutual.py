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
updates, the proxy side at polls), so the condition is evaluated in
one forward sweep over the merged polls, each trace walked by a cursor.

Violation counting (Eq. 13 analogue): the condition is checked just
after every completed poll of either member; fidelity is
``1 − violations / polls``.
"""

from __future__ import annotations

import bisect
import math
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.types import Seconds
from repro.metrics.fidelity import FidelityReport, require_values
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
    times = trace.times
    index = bisect.bisect_right(times, version_origin)
    return (version_origin, times[index] if index < len(times) else math.inf)


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
    and the next poll (with the post-poll cached values), the poll's
    own instant included.  One forward sweep over the merged polls
    walks each trace's ``times`` with a cursor; the knots of a segment
    are its poll and the updates of either object up to its end.

    Raises:
        ValueError: ``delta`` is not positive, or a trace carries no
            values.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    require_values("mutual_value_fidelity", trace_a, trace_b)
    window_start = (
        start if start is not None else min(trace_a.start_time, trace_b.start_time)
    )
    window_end = (
        end if end is not None else max(trace_a.end_time, trace_b.end_time)
    )

    # Proxy-side step events (a stable sort keeps a's before b's).
    events: List[Tuple[Seconds, bool, float]] = [(t, True, v) for t, v in fetches_a]
    events += [(t, False, v) for t, v in fetches_b]
    events.sort(key=itemgetter(0))

    times_a, values_a, count_a = trace_a.times, trace_a.values, len(trace_a.times)
    times_b, values_b, count_b = trace_b.times, trace_b.values, len(trace_b.times)
    next_a = next_b = 0  # first update after the current knot
    polls = len(events)
    violations = 0
    out_sync = 0.0
    cached_a: Optional[float] = None
    cached_b: Optional[float] = None

    for index, (time, is_a, value) in enumerate(events):
        if is_a:
            cached_a = value
        else:
            cached_b = value
        segment_end = events[index + 1][0] if index + 1 < polls else window_end
        if cached_a is None or cached_b is None or segment_end <= time:
            continue
        f_proxy = f(cached_a, cached_b)
        while next_a < count_a and times_a[next_a] <= time:
            next_a += 1
        while next_b < count_b and times_b[next_b] <= time:
            next_b += 1
        # Knots: the poll, then every update of either object in
        # (time, segment_end]; an update exactly at segment_end is
        # repaired by the poll at that instant and never observable.
        violated = False
        stale = 0.0
        knot = time
        while knot < segment_end:
            update_a = times_a[next_a] if next_a < count_a else math.inf
            update_b = times_b[next_b] if next_b < count_b else math.inf
            following = update_a if update_a < update_b else update_b
            if following > segment_end:
                following = segment_end
            if next_a and next_b and abs(
                f(values_a[next_a - 1], values_b[next_b - 1]) - f_proxy
            ) >= delta:
                violated = True
                lo = knot if knot > window_start else window_start
                hi = following if following < window_end else window_end
                if hi > lo:
                    stale += hi - lo
            if update_a == following:
                next_a += 1
            if update_b == following:
                next_b += 1
            knot = following
        if violated:
            violations += 1
        out_sync += stale

    return FidelityReport(
        polls=polls,
        violations=violations,
        out_sync_time=out_sync,
        duration=window_end - window_start,
    )
