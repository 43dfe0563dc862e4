"""Simulated HTTP request/response messages.

The simulation exchanges message objects rather than bytes, but the
message model mirrors HTTP/1.1 where the paper depends on it: methods,
status codes (200/304/404), case-insensitive headers, ``Last-Modified``
and ``If-Modified-Since`` semantics, and the Section 5.1 extension
headers.

A message's typed fields are its only state.  ``headers`` is a view
rendered from them on demand (for ``repr`` and for inspecting the
Section 5.1 wire format); nothing on the poll path builds or parses a
header string.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.types import ObjectId, Seconds
from repro.httpsim import headers as h


class Method(enum.Enum):
    """HTTP request methods modelled by the simulation."""

    GET = "GET"
    HEAD = "HEAD"


class Status(enum.IntEnum):
    """HTTP status codes modelled by the simulation."""

    OK = 200
    NOT_MODIFIED = 304
    NOT_FOUND = 404


class Headers:
    """A case-insensitive header multimap (single-valued per name).

    HTTP header names are case-insensitive; we store them lower-cased
    and preserve insertion order for deterministic serialisation.
    """

    __slots__ = ("_entries",)

    def __init__(self, initial: Optional[Mapping[str, str]] = None) -> None:
        self._entries: Dict[str, str] = {}
        if initial:
            for name, value in initial.items():
                self.set(name, value)

    def set(self, name: str, value: str) -> None:
        if not name:
            raise ValueError("header name must be non-empty")
        self._entries[name.lower()] = value

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self._entries.get(name.lower(), default)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._entries

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def copy(self) -> "Headers":
        return Headers(dict(self._entries))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"Headers({self._entries})"


class Request:
    """A simulated HTTP request from proxy (or client) to a server.

    Attributes:
        if_modified_since: The ``If-Modified-Since`` timestamp, if any.
        wants_history: Whether the request asks for the Section 5.1
            modification-history extension.
        consistency_delta: The Δ tolerance declared by the requester
            (Section 5.1), if any.
        mutual_consistency_delta: The δ tolerance declared by the
            requester (Section 5.1), if any.
        issued_at: Simulation time the request was sent.
    """

    __slots__ = (
        "method",
        "object_id",
        "if_modified_since",
        "wants_history",
        "consistency_delta",
        "mutual_consistency_delta",
        "issued_at",
    )

    def __init__(
        self,
        method: Method,
        object_id: ObjectId,
        *,
        if_modified_since: Optional[Seconds] = None,
        wants_history: bool = False,
        consistency_delta: Optional[float] = None,
        mutual_consistency_delta: Optional[float] = None,
        issued_at: Seconds = 0.0,
    ) -> None:
        self.method = method
        self.object_id = object_id
        self.if_modified_since = if_modified_since
        self.wants_history = wants_history
        self.consistency_delta = consistency_delta
        self.mutual_consistency_delta = mutual_consistency_delta
        self.issued_at = issued_at

    @property
    def headers(self) -> Headers:
        """The request's header lines, rendered from the typed fields."""
        rendered = Headers()
        if self.if_modified_since is not None:
            rendered.set(h.IF_MODIFIED_SINCE, h.format_time(self.if_modified_since))
        if self.wants_history:
            rendered.set(h.WANT_HISTORY, "1")
        if self.consistency_delta is not None:
            rendered.set(h.CONSISTENCY_DELTA, repr(self.consistency_delta))
        if self.mutual_consistency_delta is not None:
            rendered.set(
                h.MUTUAL_CONSISTENCY_DELTA, repr(self.mutual_consistency_delta)
            )
        return rendered

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Request):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    def __repr__(self) -> str:
        return (
            f"Request(method={self.method!r}, object_id={self.object_id!r}, "
            f"headers={self.headers!r}, issued_at={self.issued_at!r})"
        )


class Response:
    """A simulated HTTP response.

    Attributes:
        last_modified: The object's latest modification time
            (``Last-Modified``); ``None`` on a 404.
        version: The object's version number (``x-version``).
        value: The object's value, for valued objects (``x-value``).
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
        *,
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

    @property
    def headers(self) -> Headers:
        """The response's header lines, rendered from the typed fields."""
        rendered = Headers()
        rendered.set(h.DATE, h.format_time(self.served_at))
        if self.last_modified is not None:
            rendered.set(h.LAST_MODIFIED, h.format_time(self.last_modified))
        if self.version is not None:
            rendered.set(h.VERSION, str(self.version))
        if self.value is not None:
            rendered.set(h.VALUE, repr(self.value))
        if self.modification_history is not None:
            rendered.set(
                h.MODIFICATION_HISTORY, h.format_history(self.modification_history)
            )
        return rendered

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Response):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    def __repr__(self) -> str:
        return (
            f"Response(status={self.status!r}, object_id={self.object_id!r}, "
            f"headers={self.headers!r}, served_at={self.served_at!r})"
        )


def conditional_get(
    object_id: ObjectId,
    *,
    if_modified_since: Optional[Seconds] = None,
    want_history: bool = False,
    consistency_delta: Optional[float] = None,
    mutual_consistency_delta: Optional[float] = None,
    issued_at: Seconds = 0.0,
) -> Request:
    """Build an ``If-Modified-Since`` GET as a proxy poll would issue."""
    return Request(
        Method.GET,
        object_id,
        if_modified_since=if_modified_since,
        wants_history=want_history,
        consistency_delta=consistency_delta,
        mutual_consistency_delta=mutual_consistency_delta,
        issued_at=issued_at,
    )
