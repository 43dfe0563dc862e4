"""Simulated HTTP request/response messages.

The simulation exchanges message objects rather than bytes, but the
message model mirrors HTTP/1.1 where the paper depends on it: methods,
status codes (200/304/404), ``Last-Modified`` / ``If-Modified-Since``
semantics, and the Section 5.1 modification-history extension (a
request asks for it, a response carries the update times the requester
has not seen).  The paper's other Section 5.1 proposal, cache-control
directives declaring Δ and δ to the server, is not modelled: no server
acts on them.

A message is its typed fields; no header string is built or parsed.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.core.types import ObjectId, Seconds


class Method(enum.Enum):
    """HTTP request methods modelled by the simulation."""

    GET = "GET"
    HEAD = "HEAD"


class Status(enum.IntEnum):
    """HTTP status codes modelled by the simulation."""

    OK = 200
    NOT_MODIFIED = 304
    NOT_FOUND = 404


class _Message:
    """Equality and ``repr`` over a message's typed fields (its slots)."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__name__}({fields})"


class Request(_Message):
    """A simulated HTTP request from proxy (or client) to a server.

    The constructor's parameters are the slots, in slot order, so the
    per-poll call sites pass them positionally: on CPython a class called
    with keywords builds a kwargs dict per call.

    Attributes:
        if_modified_since: The ``If-Modified-Since`` timestamp, if any.
        wants_history: Whether the request asks for the Section 5.1
            modification-history extension.
        issued_at: Simulation time the request was sent.
    """

    __slots__ = (
        "method",
        "object_id",
        "if_modified_since",
        "wants_history",
        "issued_at",
    )

    def __init__(
        self,
        method: Method,
        object_id: ObjectId,
        if_modified_since: Optional[Seconds] = None,
        wants_history: bool = False,
        issued_at: Seconds = 0.0,
    ) -> None:
        self.method = method
        self.object_id = object_id
        self.if_modified_since = if_modified_since
        self.wants_history = wants_history
        self.issued_at = issued_at


class Response(_Message):
    """A simulated HTTP response.

    Parameters follow slot order, as for :class:`Request`.

    Attributes:
        last_modified: The object's latest modification time
            (``Last-Modified``); ``None`` on a 404.
        version: The object's version number (a simulation aid; real
            deployments would rely on ``ETag``).
        value: The object's value, for valued objects.
        modification_history: The Section 5.1 history extension — the
            modification times the requester has not seen — or ``None``
            when the response does not carry it.
        served_at: Server time the response was generated (``Date``).
    """

    __slots__ = (
        "status",
        "object_id",
        "last_modified",
        "version",
        "value",
        "modification_history",
        "served_at",
    )

    def __init__(
        self,
        status: Status,
        object_id: ObjectId,
        last_modified: Optional[Seconds] = None,
        version: Optional[int] = None,
        value: Optional[float] = None,
        modification_history: Optional[List[Seconds]] = None,
        served_at: Seconds = 0.0,
    ) -> None:
        self.status = status
        self.object_id = object_id
        self.last_modified = last_modified
        self.version = version
        self.value = value
        self.modification_history = modification_history
        self.served_at = served_at


def conditional_get(
    object_id: ObjectId,
    *,
    if_modified_since: Optional[Seconds] = None,
    want_history: bool = False,
    issued_at: Seconds = 0.0,
) -> Request:
    """Build an ``If-Modified-Since`` GET as a proxy poll would issue."""
    return Request(Method.GET, object_id, if_modified_since, want_history, issued_at)
