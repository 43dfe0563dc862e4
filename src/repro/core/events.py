"""Why a poll happened.

Every row of an object's fetch log (the
:class:`~repro.proxy.entry.CacheEntry` ``fetch_reasons`` column)
carries a :class:`PollReason`, and the proxy tallies polls per reason,
so a finished run can say *why* each poll was issued.
"""

from __future__ import annotations

import enum


class PollReason(enum.Enum):
    """Why the proxy issued a poll to the origin server."""

    #: The object's TTR expired (normal individual-consistency refresh).
    TTR_EXPIRED = "ttr_expired"
    #: A cache miss forced a fetch from the server.
    CACHE_MISS = "cache_miss"
    #: An update to a related object triggered this poll (Section 3.2).
    MUTUAL_TRIGGER = "mutual_trigger"
    #: First fetch when the object was registered with the proxy.
    INITIAL_FETCH = "initial_fetch"

    def __init__(self, value: str) -> None:
        #: The proxy counter that tallies polls issued for this reason; a
        #: plain attribute, so the per-poll bump hashes no enum member.
        self.counter_name = f"polls_{value}"
