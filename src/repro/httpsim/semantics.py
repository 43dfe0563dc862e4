"""Conditional-GET evaluation semantics.

Encodes how an origin server answers an ``If-Modified-Since`` request:
304 when the object is unchanged since the supplied timestamp, else 200
with fresh metadata.  Also builds the Section 5.1 modification-history
header when the request asks for it.

This logic is pulled out of the server class so it can be unit-tested
and property-tested in isolation.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Protocol, Sequence, runtime_checkable

from repro.core.types import Seconds
from repro.httpsim.messages import Request, Response, Status


@runtime_checkable
class Upstream(Protocol):
    """Anything a proxy can poll: an origin server or an upstream proxy.

    Both :class:`repro.server.origin.OriginServer` and
    :class:`repro.proxy.proxy.ProxyCache` satisfy this protocol, which
    is what makes hierarchical proxy chains (child polls parent polls
    origin) possible without special-casing either side.
    """

    name: str

    def handle_request(self, request: Request, now: Seconds) -> Response:
        """Answer a simulated HTTP request at time ``now``."""
        ...  # pragma: no cover - protocol definition

#: Cap on how many modification times the history header carries.  The
#: paper proposes "a modification history of arbitrary length"; a cap
#: keeps simulated message sizes bounded while still covering any
#: realistic poll interval.
MAX_HISTORY_LENGTH = 64


def evaluate_conditional_get(
    request: Request,
    *,
    now: Seconds,
    last_modified: Optional[Seconds],
    version: Optional[int],
    value: Optional[float],
    history_times: Optional[Sequence[Seconds]],
) -> Response:
    """Answer a conditional GET given the object's server-side state.

    Args:
        request: The incoming request.
        now: Server time when the response is generated.
        last_modified: The object's latest modification time, or ``None``
            if the object has never been modified (unborn → 404).
        version: Current version number (paired with ``last_modified``).
        value: Current value for valued objects, else ``None``.
        history_times: All modification times up to ``now`` (ascending),
            used to populate the history extension when the request asks
            for it.  ``None`` means the server does not implement the
            extension: a plain HTTP/1.1 server ignores unknown headers,
            so the response simply lacks history.

    Returns:
        A 404, 304, or 200 response per HTTP/1.1 semantics.
    """
    if last_modified is None or version is None:
        return Response(Status.NOT_FOUND, request.object_id, served_at=now)

    ims = request.if_modified_since
    history = history_times if request.wants_history else None

    if ims is not None and last_modified <= ims:
        # Unchanged since the caller's timestamp → 304.  Per RFC 2616 a
        # 304 must not carry entity headers, but Last-Modified is
        # permitted and useful; we include it plus the version so the
        # proxy can re-validate bookkeeping.
        return Response(
            Status.NOT_MODIFIED,
            request.object_id,
            last_modified=last_modified,
            version=version,
            modification_history=[] if history is not None else None,
            served_at=now,
        )

    return Response(
        Status.OK,
        request.object_id,
        last_modified=last_modified,
        version=version,
        value=value,
        modification_history=(
            _history_since(history, ims) if history is not None else None
        ),
        served_at=now,
    )


def _history_since(
    history_times: Sequence[Seconds], since: Optional[Seconds]
) -> List[Seconds]:
    """Modification times strictly after ``since`` (all times if None).

    ``history_times`` is ascending, so the cut point is found by
    bisection rather than a full scan.  Truncated to the most recent
    :data:`MAX_HISTORY_LENGTH` entries.
    """
    if since is None:
        start = 0
    else:
        start = bisect_right(history_times, since)
    if len(history_times) - start > MAX_HISTORY_LENGTH:
        start = len(history_times) - MAX_HISTORY_LENGTH
    return list(history_times[start:])
