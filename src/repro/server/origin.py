"""The origin server: an object store plus HTTP request handling.

The server owns :class:`ServerObject` instances and answers simulated
HTTP requests (conditional GETs) against them, optionally including the
Section 5.1 modification-history extension.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from repro.core.errors import UnknownObjectError
from repro.core.types import ObjectId, Seconds
from repro.httpsim.messages import Request, Response, Status
from repro.httpsim.semantics import Answer, answer_conditional_get, response_to
from repro.server.objects import ServerObject
from repro.sim.stats import Counter

#: Per-status response counter names, precomputed so the per-request
#: hot path does no f-string formatting.
_RESPONSE_COUNTER_NAMES = {status: f"responses_{int(status)}" for status in Status}

#: Called after an update is applied: ``(object_id, update_time)``.
UpdateListener = Callable[[ObjectId, Seconds], None]


class OriginServer:
    """A simulated origin server.

    Attributes:
        name: Identifier used in logs and experiment reports.
        supports_history: Whether the server implements the Section 5.1
            modification-history extension.  When False, requests asking
            for history receive responses without the header — exactly
            the degradation the paper discusses for plain HTTP/1.1.
    """

    def __init__(
        self,
        name: str = "origin",
        *,
        supports_history: bool = True,
    ) -> None:
        self.name = name
        self.supports_history = supports_history
        self._objects: Dict[ObjectId, ServerObject] = {}
        # Update listeners back push-based consistency (an attached
        # push source fans each applied update out to its subscribers);
        # the common pull-only stack leaves the list empty, keeping the
        # per-update hot path to one truthiness check.
        self._update_listeners: List[UpdateListener] = []
        self.counters = Counter()

    # ------------------------------------------------------------------
    # Object management
    # ------------------------------------------------------------------
    def create_object(
        self,
        object_id: ObjectId,
        *,
        created_at: Seconds = 0.0,
        initial_value: Optional[float] = None,
    ) -> ServerObject:
        """Create and register a new object; error if it already exists."""
        if object_id in self._objects:
            raise ValueError(f"object {object_id!r} already exists on {self.name}")
        obj = ServerObject(
            object_id, created_at=created_at, initial_value=initial_value
        )
        self._objects[object_id] = obj
        return obj

    def get_object(self, object_id: ObjectId) -> ServerObject:
        """Look up an object; raises :class:`UnknownObjectError` if absent."""
        try:
            return self._objects[object_id]
        except KeyError:
            raise UnknownObjectError(str(object_id), where=self.name) from None

    def has_object(self, object_id: ObjectId) -> bool:
        return object_id in self._objects

    def object_ids(self) -> Iterator[ObjectId]:
        return iter(self._objects)

    def add_update_listener(self, listener: UpdateListener) -> None:
        """Observe every applied update (push-consistency sources)."""
        self._update_listeners.append(listener)

    def remove_update_listener(self, listener: UpdateListener) -> None:
        """Detach a listener (no error if absent)."""
        if listener in self._update_listeners:
            self._update_listeners.remove(listener)

    def apply_update(
        self, object_id: ObjectId, time: Seconds, value: Optional[float] = None
    ) -> None:
        """Apply one update to an object (called by the update feeder).

        The one writer of a :class:`ServerObject`'s two lists: the new
        version is one append to each, in place, so an update builds no
        record.  Updates must be strictly after the previous
        modification.
        """
        obj = self._objects.get(object_id)
        if obj is None:
            raise UnknownObjectError(str(object_id), where=self.name)
        times = obj.times
        if not time > times[-1]:
            raise ValueError(
                f"update at t={time} must be after last modification "
                f"at t={times[-1]} for {object_id!r}"
            )
        times.append(time)
        obj.values.append(value)
        self.counters.counts["updates_applied"] += 1
        if self._update_listeners:
            for listener in tuple(self._update_listeners):
                listener(object_id, time)

    # ------------------------------------------------------------------
    # HTTP handling
    # ------------------------------------------------------------------
    def respond(
        self,
        object_id: ObjectId,
        if_modified_since: Optional[Seconds],
        wants_history: bool,
        now: Seconds,
    ) -> Answer:
        """Answer a conditional GET at server time ``now`` (an
        :class:`~repro.httpsim.semantics.Upstream`)."""
        counts = self.counters.counts
        counts["requests"] += 1
        obj = self._objects.get(object_id)
        if obj is None:
            counts["responses_404"] += 1
            return answer_conditional_get(
                if_modified_since, wants_history, None, None, None, ()
            )
        # The object's lists, read in place: no property frame per poll.
        # The history is the live list; a 200 carries a fresh slice of it.
        times = obj.times
        answer = answer_conditional_get(
            if_modified_since,
            wants_history,
            times[-1],
            len(times) - 1,
            obj.values[-1],
            times if self.supports_history else None,
        )
        counts[_RESPONSE_COUNTER_NAMES[answer[0]]] += 1
        return answer

    def handle_request(self, request: Request, now: Seconds) -> Response:
        """Answer a simulated HTTP request at server time ``now``."""
        answer = self.respond(
            request.object_id, request.if_modified_since, request.wants_history, now
        )
        return response_to(request, answer, now)

    def __repr__(self) -> str:
        return (
            f"OriginServer({self.name!r}, objects={len(self._objects)}, "
            f"history={self.supports_history})"
        )
