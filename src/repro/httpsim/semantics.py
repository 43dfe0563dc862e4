"""Conditional-GET evaluation semantics.

Encodes how an origin server answers an ``If-Modified-Since`` request:
304 when the object is unchanged since the supplied timestamp, else 200
with fresh metadata.  Also builds the Section 5.1 modification-history
header when the request asks for it.  The answer is a plain tuple
(:data:`Answer`), which a synchronous poll reads directly;
:func:`response_to` wraps it in the :class:`Response` a latent link
delivers.

This logic is pulled out of the server class so it can be unit-tested
and property-tested in isolation.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.core.types import ObjectId, Seconds
from repro.httpsim.messages import Request, Response, Status


#: A conditional GET's answer, ``(status, last_modified, version, value,
#: history)``: a :class:`~repro.httpsim.messages.Response` without the
#: object id and ``Date`` the asker already holds.  A poll over a
#: synchronous link reads these fields and builds no message.
Answer = Tuple[
    Status, Optional[Seconds], Optional[int], Optional[float], Optional[List[Seconds]]
]


@runtime_checkable
class Upstream(Protocol):
    """Anything a proxy can poll: an origin server or an upstream proxy.

    Both :class:`repro.server.origin.OriginServer` and
    :class:`repro.proxy.proxy.ProxyCache` satisfy this protocol, which
    is what makes hierarchical proxy chains (child polls parent polls
    origin) possible without special-casing either side.
    """

    name: str

    def respond(
        self,
        object_id: ObjectId,
        if_modified_since: Optional[Seconds],
        wants_history: bool,
        now: Seconds,
    ) -> Answer:
        """Answer a conditional GET for ``object_id`` at time ``now``."""
        ...  # pragma: no cover - protocol definition

    def handle_request(self, request: Request, now: Seconds) -> Response:
        """Answer a simulated HTTP request at time ``now`` (see
        :func:`response_to`)."""
        ...  # pragma: no cover - protocol definition

#: Cap on how many modification times the history header carries.  The
#: paper proposes "a modification history of arbitrary length"; a cap
#: keeps simulated message sizes bounded while still covering any
#: realistic poll interval.
MAX_HISTORY_LENGTH = 64

# Bound once: a member read through its enum class is slow on CPython
# 3.11 (see ``repro.proxy.proxy``), and a server answers every poll.
_OK = Status.OK
_NOT_MODIFIED = Status.NOT_MODIFIED
_NOT_FOUND: Answer = (Status.NOT_FOUND, None, None, None, None)


def answer_conditional_get(
    if_modified_since: Optional[Seconds],
    wants_history: bool,
    last_modified: Optional[Seconds],
    version: Optional[int],
    value: Optional[float],
    history_times: Optional[Sequence[Seconds]],
) -> Answer:
    """Answer a conditional GET given the object's server-side state.

    Args:
        if_modified_since: The request's ``If-Modified-Since``, if any.
        wants_history: Whether the request asks for the history
            extension.
        last_modified: The object's latest modification time, or ``None``
            if the object has never been modified (unborn → 404).
        version: Current version number (paired with ``last_modified``).
        value: Current value for valued objects, else ``None``.
        history_times: All modification times up to now (ascending),
            used to populate the history extension when the request asks
            for it.  ``None`` means the server does not implement the
            extension: a plain HTTP/1.1 server ignores unknown headers,
            so the answer simply lacks history.

    Returns:
        A 404, 304 or 200 per HTTP/1.1 semantics, as an :data:`Answer`.
    """
    if last_modified is None or version is None:
        return _NOT_FOUND

    history = history_times if wants_history else None

    if if_modified_since is not None and last_modified <= if_modified_since:
        # Unchanged since the caller's timestamp → 304.  Per RFC 2616 a
        # 304 must not carry entity headers, but Last-Modified is
        # permitted and useful; we include it plus the version so the
        # proxy can re-validate bookkeeping.
        return (
            _NOT_MODIFIED,
            last_modified,
            version,
            None,
            [] if history is not None else None,
        )

    return (
        _OK,
        last_modified,
        version,
        value,
        _history_since(history, if_modified_since) if history is not None else None,
    )


def response_to(request: Request, answer: Answer, now: Seconds) -> Response:
    """The :class:`Response` message carrying ``answer`` to ``request``.

    Each upstream's ``handle_request`` is this over its own
    ``respond``: the message form a latent link delivers.  Built
    positionally (see :class:`Request`).
    """
    status, last_modified, version, value, history = answer
    return Response(
        status, request.object_id, last_modified, version, value, history, now
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
