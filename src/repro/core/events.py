"""Why a poll happened.

Every poll is issued for a :class:`PollReason`, and the proxy tallies
polls per reason in its ``polls_<reason>`` counters (the member's
``counter_name``), so a finished run can say *why* its polls were
issued.  The fetch log itself stores no reason per row.
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
