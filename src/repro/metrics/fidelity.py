"""Ground-truth fidelity metrics for *individual* consistency.

The paper evaluates mechanisms by (i) number of polls and (ii) fidelity,
measured two ways::

    f = 1 − violations / polls                (Eq. 13)
    f = 1 − out-of-sync time / trace duration (Eq. 14)

These computations are **omniscient**: they use the full update trace
(ground truth), not what the proxy managed to observe — a mechanism must
not get credit for violations it failed to detect.

Temporal-domain semantics (Eq. 2, Figure 1): a poll at ``p`` leaves the
proxy holding the version its response's ``last_modified`` names — the
origin's state when the response left it, which behind a latent link or
a stale parent cache is older than ``p``.  The copy stays Δt-consistent
until Δ after the *first* origin update newer than that version.  The
next poll at ``q`` therefore reveals a violation iff that update is more
than Δ old at ``q``.

The paper's evaluation scores the value domain only mutually (Mv,
:func:`repro.metrics.mutual.mutual_value_fidelity`);
:func:`require_values` here is the guard the value-domain scorers share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.types import Seconds
from repro.traces.model import UpdateTrace

#: (poll_time, last_modified of the version obtained) — the per-poll
#: record Δt and Mt evaluation need.
TemporalFetch = Tuple[Seconds, Seconds]


@dataclass(frozen=True)
class FidelityReport:
    """Poll count, violation count, and both fidelity measures."""

    polls: int
    violations: int
    out_sync_time: Seconds
    duration: Seconds

    @property
    def fidelity_by_violations(self) -> float:
        """Eq. 13.  Defined as 1.0 when there were no polls."""
        if self.polls == 0:
            return 1.0
        return 1.0 - self.violations / self.polls

    @property
    def fidelity_by_time(self) -> float:
        """Eq. 14.  Defined as 1.0 for a zero-length window."""
        if self.duration <= 0:
            return 1.0
        return 1.0 - self.out_sync_time / self.duration


# ----------------------------------------------------------------------
# Temporal domain
# ----------------------------------------------------------------------
def temporal_fidelity(
    trace: UpdateTrace,
    fetches: Sequence[TemporalFetch],
    delta: Seconds,
    *,
    start: Optional[Seconds] = None,
    end: Optional[Seconds] = None,
) -> FidelityReport:
    """Evaluate Δt-consistency of a fetch schedule against ground truth.

    Args:
        trace: The object's true (origin) update history.
        fetches: (poll time, obtained Last-Modified) pairs, ascending in
            time.  The first entry is normally the initial fetch.
        delta: The Δ bound, in seconds.
        start, end: Evaluation window (defaults to the trace window).

    Between fetches the copy holds the version its Last-Modified names;
    it is out of sync from Δ after the first origin update newer than
    that version.  A poll counts as a violation (Eq. 13) when it closes
    a segment that went out of sync; the final open segment adds
    out-of-sync time (Eq. 14) but no violation.  Before the first fetch
    nothing is charged; a never-fetched object is out of sync from Δ
    after the first update in the window.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    window_start = start if start is not None else trace.start_time
    window_end = end if end is not None else trace.end_time
    _require_ascending([t for t, _ in fetches])

    violations = 0
    out_sync = 0.0
    if not fetches:
        first = trace.next_after(window_start)
        if first is not None:
            out_sync = max(0.0, window_end - (first + delta))
    for index, (poll_time, last_modified) in enumerate(fetches):
        closed = index + 1 < len(fetches)
        segment_end = fetches[index + 1][0] if closed else window_end
        unseen = trace.next_after(last_modified)
        if unseen is None:
            continue
        stale_from = max(poll_time, unseen + delta)
        if closed and stale_from < segment_end:
            violations += 1
        lo = max(stale_from, window_start)
        hi = min(segment_end, window_end)
        if hi > lo:
            out_sync += hi - lo
    return FidelityReport(
        polls=len(fetches),
        violations=violations,
        out_sync_time=out_sync,
        duration=window_end - window_start,
    )


def require_values(scorer: str, *traces: UpdateTrace) -> None:
    """Raise ``ValueError`` naming the first trace that carries no values."""
    for trace in traces:
        if not trace.has_values:
            raise ValueError(
                f"{scorer} requires value-domain traces; "
                f"{trace.object_id!r} has no values"
            )


def _require_ascending(times: Sequence[Seconds]) -> None:
    for earlier, later in zip(times, times[1:]):
        if later < earlier:
            raise ValueError("poll times must be ascending")
