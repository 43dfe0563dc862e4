"""Analytic fast-forward through event-free intervals.

Between externally scheduled events (trace updates, client arrivals,
failure injections) the only thing a simulation does is fire poll
timers — and a poll timer's schedule is closed-form: the refresher's
next instant is known exactly, so there is nothing to *discover* by
dispatching kernel events one at a time.  The
:class:`FastForwardEngine` exploits that:

* Every registered object's :class:`~repro.proxy.refresher.Refresher`
  is detached from its kernel timer
  (:meth:`~repro.proxy.refresher.Refresher.detach_timer`); re-arms
  become arithmetic updates queued on the engine's own scheduler —
  built through the same :func:`~repro.sim.kernel.make_scheduler` seam
  as the kernel's, of the same kind, and driven through the same three
  primitives (``push(entry)`` / ``pop()`` / ``size()``) — instead of
  kernel events.  Queued polls ride pooled ``_PollEntry`` carriers: a
  re-arm or disarm eagerly cancels the carrier through the reschedule
  hook, and the main loop recycles the cancelled carriers it pops into
  a free list, as the kernel's drain loop does with its records.
* The main loop compares the earliest queued poll instant with the
  kernel's earliest pending event (:meth:`~repro.sim.kernel.Kernel.
  peek_next_time`).  Runs of external events dispatch through the
  batch-dispatch seam (:meth:`~repro.sim.kernel.Kernel.run_batch`) in
  one call; each queued poll advances the clock analytically
  (:meth:`~repro.sim.kernel.Kernel.advance_clock`) and issues through
  the proxy's ordinary poll path — the same code a timer callback runs.

Observable histories are identical to the step-by-step kernel: per-poll
fetch logs (times, versions, reasons), proxy/origin/network counters,
policy state, and coordinator-visible next/previous poll instants all
match byte for byte — pinned by the equivalence suite in
``tests/test_fastforward.py``.  Two deliberate exceptions: kernel
``events_processed`` counts only *dispatched* events (fast-forwarded
polls never become events), and at exactly coincident timestamps
external events dispatch before fast-forwarded polls, whereas the step
kernel orders them by scheduling sequence.  Coincidences have measure
zero for the continuous-time workloads this engine targets.

The engine requires synchronous (zero-latency, zero-jitter) links:
polls must complete inline for an analytic advance to preserve event
order around in-flight responses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.errors import SimulationError
from repro.core.types import Seconds
from repro.proxy.proxy import ProxyCache
from repro.proxy.refresher import Refresher
from repro.sim.kernel import Kernel, Scheduler, make_scheduler


class _PollEntry:
    """Scheduler carrier for one queued poll instant.

    The engine's analogue of the kernel's pooled ``_Event`` record:
    entries are keyed ``(time, sequence)`` on the scheduler (sequence
    mirrors FIFO arm order, so equal-time polls fire in the order the
    step-by-step kernel would fire them), cancelled eagerly when the
    refresher re-arms or disarms, and recycled through a free list once
    consumed or reclaimed.
    """

    __slots__ = ("refresher", "cancelled")

    def __init__(self, refresher: Refresher) -> None:
        self.refresher = refresher
        self.cancelled = False


class FastForwardEngine:
    """Runs a simulation to its horizon without dispatching idle timers.

    Args:
        kernel: The simulation kernel (shared with every proxy).
        proxies: The proxies whose refreshers the engine takes over —
            typically every registered node of a topology tree.  Each
            must poll over a synchronous link.

    Use as a drop-in replacement for ``kernel.run(until=horizon)``::

        engine = FastForwardEngine(kernel, proxies)
        try:
            engine.run(horizon)
        finally:
            engine.close()

    :meth:`close` reattaches every refresher to its kernel timer, so
    post-run introspection (and any further stepping) behaves exactly
    as after a plain run.
    """

    __slots__ = (
        "_kernel",
        "_scheduler",
        "_queue",
        "_current",
        "_free",
        "_sequence",
        "_refreshers",
        "_closed",
    )

    def __init__(self, kernel: Kernel, proxies: Sequence[ProxyCache]) -> None:
        # Validate every link before detaching anything: a failed
        # construction has no engine to close(), so refreshers detached
        # ahead of the raise would never poll again.
        for proxy in proxies:
            if not proxy.network.synchronous:
                raise SimulationError(
                    f"fast-forward requires synchronous links; proxy "
                    f"{proxy.name!r} polls over latency "
                    f"{proxy.network.latency.one_way}"
                )
        self._kernel = kernel
        self._free: List[_PollEntry] = []
        self._scheduler: Scheduler[_PollEntry] = make_scheduler(
            kernel.scheduler_kind
        )
        self._queue = self._scheduler.push
        #: The live carrier per armed refresher, for eager cancellation.
        self._current: Dict[Refresher, _PollEntry] = {}
        self._sequence = 0
        self._refreshers: List[Refresher] = []
        self._closed = False
        for proxy in proxies:
            for object_id in proxy.registered_objects():
                refresher = proxy.refresher_for(object_id)
                when = refresher.detach_timer(self._on_reschedule)
                self._refreshers.append(refresher)
                if when is not None:
                    self._push(when, refresher)

    # ------------------------------------------------------------------
    # Schedule bookkeeping
    # ------------------------------------------------------------------
    def _push(self, when: Seconds, refresher: Refresher) -> None:
        free = self._free
        if free:
            entry = free.pop()
            entry.refresher = refresher
            entry.cancelled = False
        else:
            entry = _PollEntry(refresher)
        self._current[refresher] = entry
        self._queue((when, self._sequence, entry))
        self._sequence += 1

    def _on_reschedule(self, refresher: Refresher, when: Optional[Seconds]) -> None:
        """Mirror a detached re-arm (or, with ``when=None``, a disarm).

        The superseded carrier is cancelled eagerly and recycled by
        :meth:`run` when it surfaces, exactly as a
        ``RestartableTimer.arm_at`` flags its old kernel event.
        """
        stale = self._current.pop(refresher, None)
        if stale is not None:
            stale.cancelled = True
        if when is not None:
            self._push(when, refresher)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Seconds) -> None:
        """Advance the simulation to ``until``.

        Equivalent to ``kernel.run(until=until)`` up to the documented
        event-count / tie-order exceptions; the clock finishes exactly
        at ``until``.
        """
        if self._closed:
            raise SimulationError("fast-forward engine is closed")
        kernel = self._kernel
        if until < kernel.now():
            raise SimulationError(
                f"cannot fast-forward to t={until}, already at t={kernel.now()}"
            )
        pop = self._scheduler.pop
        size = self._scheduler.size
        free = self._free
        while True:
            # The earliest live poll, popped; cancelled carriers on the
            # way to it are recycled.
            head = None
            while size():
                entry = pop()
                if not entry[2].cancelled:
                    head = entry
                    break
                free.append(entry[2])
            bound = until if (head is None or head[0] > until) else head[0]
            t_ext = kernel.peek_next_time()
            if t_ext is not None and t_ext <= bound:
                # External events first (they were scheduled before any
                # timer re-arm at the same instant); one batch call
                # drains the whole run up to the next poll, including
                # events its own callbacks schedule inside the window.
                # The popped poll goes back under its own (time,
                # sequence): those callbacks may re-arm ahead of it.
                if head is not None:
                    self._queue(head)
                kernel.run_batch(bound)
                continue
            if head is None:
                break
            time, _sequence, carrier = head
            if time > until:
                self._queue(head)
                break
            refresher = carrier.refresher
            # A live carrier is exactly the refresher's current one;
            # consume and recycle it before the poll re-arms (the
            # re-arm reuses the carrier).
            del self._current[refresher]
            free.append(carrier)
            kernel.advance_clock(time)
            refresher.fire_expired()
        if kernel.now() < until:
            kernel.advance_clock(until)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Reattach every refresher to its kernel timer. Idempotent."""
        if self._closed:
            return
        self._closed = True
        for refresher in self._refreshers:
            refresher.reattach_timer()

    def __repr__(self) -> str:
        return (
            f"FastForwardEngine(refreshers={len(self._refreshers)}, "
            f"queued={self._scheduler.pending_count()})"
        )
