"""Feeding trace updates into an origin server.

An :class:`UpdateFeeder` turns a static :class:`UpdateTrace` into a
live, time-driven object at the origin: every trace update is one
kernel event that applies it at the right instant, streamed through
:meth:`~repro.sim.kernel.Kernel.schedule_series` so only the next
update of each trace is ever pending.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable

from repro.core.types import ObjectId
from repro.server.origin import OriginServer
from repro.sim.kernel import Kernel
from repro.traces.model import UpdateTrace


class UpdateFeeder:
    """Schedules a trace's updates onto the kernel for one server object.

    The server object is created (version 0) at the trace's start time
    minus nothing — i.e. at ``trace.start_time`` — so the first trace
    update becomes version 1, matching the paper's "version ... set to
    zero when the object is created ... incremented on each update".

    For valued traces, the object's initial value is the first update's
    value (the proxy's first fetch then observes a sensible price rather
    than ``None``).
    """

    def __init__(
        self,
        kernel: Kernel,
        server: OriginServer,
        trace: UpdateTrace,
    ) -> None:
        self._object_id = trace.object_id
        self._sink = server.apply_update
        self._times = trace.times
        self._values = trace.values
        if not server.has_object(trace.object_id):
            server.create_object(
                trace.object_id,
                created_at=trace.start_time,
                initial_value=trace.values[0] if trace.values else None,
            )
        # The creation coincides with the window start; feed only what
        # is strictly in the future of creation.
        self._first = bisect.bisect_right(trace.times, trace.start_time)
        self._next = self._first
        kernel.schedule_series(
            trace.times[self._first :],
            self._apply_next,
            label=f"update.{trace.object_id}",
        )

    @property
    def scheduled_count(self) -> int:
        return len(self._times) - self._first

    @property
    def applied_count(self) -> int:
        return self._next - self._first

    def _apply_next(self, _kernel: Kernel) -> None:
        # Advance the cursor before delivering, so a raising sink cannot
        # make the next instant re-deliver this update.
        index = self._next
        self._next = index + 1
        self._sink(self._object_id, self._times[index], self._values[index])


def feed_traces(
    kernel: Kernel,
    server: OriginServer,
    traces: Iterable[UpdateTrace],
) -> Dict[ObjectId, UpdateFeeder]:
    """Create feeders for several traces; returns them keyed by object."""
    feeders: Dict[ObjectId, UpdateFeeder] = {}
    for trace in traces:
        feeders[trace.object_id] = UpdateFeeder(kernel, server, trace)
    return feeders
