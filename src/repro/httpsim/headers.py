"""HTTP header names, including the paper's Section 5.1 extensions.

The paper proposes two HTTP/1.1 extensions:

1. a **modification-history** response header carrying the times of the
   most recent updates (plain HTTP exposes only ``Last-Modified``, which
   makes Figure 1(b)-style violations undetectable); and
2. **cache-control consistency directives** by which a client/proxy
   declares the per-object tolerance Δ and the per-group tolerance δ.

We model both with ``x-``-prefixed user-defined headers, exactly as the
paper suggests ("using the user-defined header features of HTTP").
"""

from __future__ import annotations

from typing import List, Sequence

# Standard HTTP/1.1 headers the simulation models.
LAST_MODIFIED = "last-modified"
IF_MODIFIED_SINCE = "if-modified-since"
DATE = "date"

# Section 5.1 extension headers.
#: Response header: comma-separated recent modification times (newest
#: last), covering at least the interval since the request's IMS time.
MODIFICATION_HISTORY = "x-modification-history"
#: Request header: ask the server to include the modification history.
WANT_HISTORY = "x-want-modification-history"
#: Request cache-control-style directive: individual tolerance Δ.
CONSISTENCY_DELTA = "x-consistency-delta"
#: Request cache-control-style directive: mutual tolerance δ.
MUTUAL_CONSISTENCY_DELTA = "x-mutual-consistency-delta"
#: Response header: the object's current version number (simulation aid;
#: real deployments would rely on ETag).
VERSION = "x-version"
#: Response header: the object's current value, for valued objects.
VALUE = "x-value"


def format_time(t: float) -> str:
    """Serialise a simulation timestamp for a header value.

    Real HTTP uses RFC 1123 dates; the simulation's clock is a float, so
    we serialise with full precision via ``repr``.
    """
    return repr(float(t))


def parse_time(raw: str) -> float:
    """Parse a header timestamp produced by :func:`format_time`."""
    return float(raw)


def format_history(times: Sequence[float]) -> str:
    """Serialise a modification-history list (oldest first)."""
    return ",".join(format_time(t) for t in times)


def parse_history(raw: str) -> List[float]:
    """Parse a modification-history header value."""
    raw = raw.strip()
    if not raw:
        return []
    return [parse_time(piece) for piece in raw.split(",")]
