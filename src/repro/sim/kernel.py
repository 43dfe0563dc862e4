"""Discrete-event simulation kernel.

A classic priority-queue DES: events are ``(time, sequence, record)``
entries on a pluggable :class:`Scheduler` (the record may be a batch of
records due at one instant); the kernel pops the earliest
event, advances the clock to its timestamp, and invokes the callback.
Ties are broken by the sequence number, drawn in increasing order when
an event is *registered* (FIFO among equal times), which makes runs
deterministic for a given seed and schedule.  Registration and queueing
coincide for everything except :meth:`Kernel.schedule_series`, which
reserves one number per instant up front and queues each instant only
when its predecessor fires.

Hot-path design (every simulated poll passes through here several
times):

* Scheduler entries are plain tuples, so ordering is resolved by
  C-level tuple comparison on ``(time, sequence)`` — no rich-comparison
  methods on event objects ever run, and the sequence tiebreaker
  guarantees the payload in slot 2 is never compared.
* The mutable per-event state lives in a ``__slots__`` record
  (:class:`_Event`) shared between the scheduler and the
  :class:`EventHandle` returned to the caller, so cancellation needs no
  side-table lookup.
* Fired events are recycled through a free list instead of allocated
  per schedule: :meth:`Kernel.schedule_raw` reuses the record and bumps
  its ``generation`` so stale handles can tell a recycled event from
  their own.  Cancelled events are reclaimed lazily when the drain loop
  pops them.
* The default scheduler's hot path enters no interpreted frame: the
  kernel binds the seam's three primitives once, and for the heap they
  are C callables (``partial(heappush, heap)``, ``partial(heappop,
  heap)``, ``heap.__len__``).  The scheduling methods build the entry
  tuple themselves and :meth:`Kernel._drain` — one frame per run, not
  per event — skips and recycles cancelled entries and stops at the
  horizon.
* Events scheduled consecutively for one instant share one entry:
  the kernel remembers the instant of its last ordinary schedule, and
  a schedule at exactly that instant appends its record to the
  instant's open :class:`_Batch` instead of pushing.  A fixed-TTR
  hierarchy re-arms every refresher for the same instant, so a heap of
  a thousand tied entries becomes a handful — no per-event sift and
  no three-way tuple compare.  Members hold consecutive sequence
  numbers, so FIFO within a batch *is* ``(time, sequence)`` order; a
  number drawn outside it (a schedule at another instant, a series
  reservation) or a pop of the batch closes it.  The same drain loop
  walks a popped batch, and introspection
  (:meth:`Kernel.peek_next_time`, :attr:`Kernel.pending_count`) sees
  its members one by one.
* Instants known in advance (a trace's updates) go through
  :meth:`Kernel.schedule_series`: still one dispatched event each, in
  the slot the per-instant ``schedule_at`` loop would give it, but one
  queued record per series instead of a closure, record, handle and
  entry tuple per instant — the pending set, and what the cyclic
  garbage collector has to walk, is O(series) rather than O(instants).

The scheduler seam is a bare ordered container of three primitives —
``push(entry)``, ``pop()`` (the earliest entry, cancelled or not; called
only when something is queued) and ``size()`` — and knows nothing about
cancellation, horizons or the event pool: whoever pops owns the
cancelled flag (the kernel recycles what it skips).  It has two
implementations: the default :class:`HeapScheduler` (C ``heapq``, which
has won every measurement on this tree) and
:class:`repro.sim.wheel.TimerWheelScheduler` (a pure-Python calendar
queue, still selectable because the frozen host-time benchmark compares
the two).  Both dispatch in bit-identical ``(time, sequence)`` order —
pinned by the hypothesis equivalence suite in
``tests/test_scheduler_equivalence.py``.

The kernel is deliberately small — no coroutines, no channels — because
the paper's simulation only needs timers (TTR expirations) and
pre-recorded instants (trace updates).
"""

from __future__ import annotations

import heapq
from functools import partial
from operator import length_hint
from typing import (
    Callable,
    Generic,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    cast,
)

from repro.core.errors import SchedulingInPastError, SimulationError
from repro.core.types import Seconds

#: An event callback.  It receives the kernel so it can schedule
#: follow-up events; the current time is ``kernel.time``.  Whatever it
#: returns is ignored, so a poll issuer can be dispatched directly.
EventCallback = Callable[["Kernel"], object]


class Cancellable(Protocol):
    """An item whose queue entry is lazily skipped once flagged."""

    cancelled: bool


_ItemT = TypeVar("_ItemT", bound=Cancellable)

#: A scheduler entry: (time, sequence, item).  Comparison never reaches
#: the item because sequence numbers are unique.
SchedulerEntry = Tuple[Seconds, int, _ItemT]


class Scheduler(Protocol[_ItemT]):
    """The pluggable priority-queue seam under the kernel.

    A bare ordered container of ``(time, sequence, item)`` entries.
    Implementations must hand entries back in exact ``(time, sequence)``
    order — including same-tick sequence tie-breaks — so the choice of
    scheduler is unobservable to the simulation.  The three primitives
    ``push`` / ``pop`` / ``size`` are bound once by their caller and
    called per event, so an implementation may expose them as instance
    attributes holding C callables.  Cancellation belongs to the caller:
    ``pop`` returns flagged entries like any other and the caller skips
    (and recycles) them; only ``peek`` and ``pending_count`` look at the
    flag.
    """

    def push(self, entry: Tuple[Seconds, int, _ItemT]) -> None:
        """Insert ``entry``; re-pushing a popped entry restores its place."""
        ...

    def pop(self) -> Tuple[Seconds, int, _ItemT]:
        """Remove and return the earliest entry, cancelled or not.

        Only called when :meth:`size` is non-zero.
        """
        ...

    def size(self) -> int:
        """Number of queued entries, cancelled ones included."""
        ...

    def peek(self) -> Optional[Tuple[Seconds, int, _ItemT]]:
        """The earliest pending entry, or None; drops cancelled heads."""
        ...

    def advance(self, to: Seconds) -> None:
        """Note an analytic clock jump through an event-free interval."""
        ...

    def pending_count(self) -> int:
        """Number of queued non-cancelled entries."""
        ...


class HeapScheduler(Generic[_ItemT]):
    """The default scheduler: a binary heap of entry tuples.

    O(log n) push/pop via :mod:`heapq`, with ``push`` / ``pop`` /
    ``size`` bound to the C functions themselves, so the per-event path
    runs no Python code of this class.  Also the behavioral oracle for
    the timer wheel in differential tests; the wheel must match it byte
    for byte.
    """

    __slots__ = ("_heap", "push", "pop", "size")

    def __init__(self) -> None:
        heap: List[Tuple[Seconds, int, _ItemT]] = []
        self._heap = heap
        self.push: Callable[[Tuple[Seconds, int, _ItemT]], None] = partial(
            heapq.heappush, heap
        )
        self.pop: Callable[[], Tuple[Seconds, int, _ItemT]] = partial(
            heapq.heappop, heap
        )
        self.size: Callable[[], int] = heap.__len__

    def peek(self) -> Optional[Tuple[Seconds, int, _ItemT]]:
        heap = self._heap
        while heap:
            head = heap[0]
            if not head[2].cancelled:
                return head
            heapq.heappop(heap)
        return None

    def advance(self, to: Seconds) -> None:
        """Clock jumps need no bookkeeping in a heap."""

    def pending_count(self) -> int:
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def __repr__(self) -> str:
        return f"HeapScheduler(queued={len(self._heap)})"


def make_scheduler(kind: str) -> "Scheduler[_ItemT]":
    """Build a scheduler by kind (``"wheel"`` or ``"heap"``)."""
    if kind == "wheel":
        from repro.sim.wheel import TimerWheelScheduler

        return TimerWheelScheduler()
    if kind == "heap":
        return HeapScheduler()
    raise ValueError(f"unknown scheduler kind {kind!r} (use 'wheel' or 'heap')")


class _Event:
    """Mutable per-event state shared by the scheduler and its handle.

    Ordering lives in the enclosing ``(time, sequence, event)`` entry
    tuple, never here — this record only carries the callback and the
    cancelled/fired flags consulted at pop time.  Records are pooled:
    ``generation`` increments each time the kernel recycles one, so a
    handle can detect that its event is long gone.
    """

    __slots__ = ("time", "callback", "label", "cancelled", "fired", "generation")

    def __init__(self, time: Seconds, callback: EventCallback, label: str) -> None:
        self.time = time
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.fired = False
        self.generation = 0


class _Batch(list[_Event]):
    """Records scheduled consecutively for one instant, queued as one entry.

    Members hold consecutive sequence numbers at the same time, and the
    entry carries the first one's, so FIFO order within the batch *is*
    ``(time, sequence)`` order.  A batch rides in an entry's record
    slot: the two attributes read there before a record and a batch are
    told apart are class constants, ``cancelled`` (False: the scheduler
    sees one never-cancelled item) and ``callback`` (None: what marks a
    batch, so a record pays no type test).  The kernel owns the
    members' flags, skips and recycles cancelled ones in
    :meth:`Kernel._drain` and drops a batch with no live member from
    :meth:`Kernel.peek_next_time`.  Hashed by identity, for the
    kernel's set of queued batches.
    """

    __slots__ = ()
    cancelled = False
    callback = None
    __hash__ = object.__hash__  # type: ignore[assignment]


def _live(batch: List[_Event]) -> int:
    """Number of a batch's members that are not cancelled."""
    return sum(1 for event in batch if not event.cancelled)


class EventHandle:
    """A handle to a scheduled event, usable to cancel it.

    Cancellation is lazy: the scheduler entry is flagged and skipped
    when it reaches the head of the queue.  Cancelling an already-fired
    or already-cancelled event is an error (it usually indicates a
    bookkeeping bug in the caller), surfaced as ``SimulationError``.

    The handle snapshots the event's time/label and generation at
    creation: once the underlying record is recycled for a later event
    (its generation moved on), the handle keeps reporting its own
    event's fate instead of the stranger's.
    """

    __slots__ = ("_event", "_generation", "_time", "_label", "_cancelled")

    def __init__(self, event: _Event) -> None:
        self._event = event
        self._generation = event.generation
        self._time = event.time
        self._label = event.label
        self._cancelled = False

    @property
    def time(self) -> Seconds:
        """The time the event is (or was) scheduled to fire."""
        return self._time

    @property
    def label(self) -> str:
        return self._label

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        if self._cancelled:
            return False
        event = self._event
        return event.generation != self._generation or event.fired

    @property
    def pending(self) -> bool:
        """True if the event is still waiting to fire."""
        if self._cancelled:
            return False
        event = self._event
        return event.generation == self._generation and not event.fired

    def cancel(self) -> None:
        """Cancel the event.  Raises ``SimulationError`` if not pending."""
        if self.fired:
            raise SimulationError(
                f"cannot cancel event {self._label!r}: already fired"
            )
        if self._cancelled:
            raise SimulationError(
                f"cannot cancel event {self._label!r}: already cancelled"
            )
        self._cancelled = True
        self._event.cancelled = True

    def __repr__(self) -> str:
        state = (
            "cancelled" if self._cancelled else ("fired" if self.fired else "pending")
        )
        return f"EventHandle(t={self._time}, label={self._label!r}, {state})"


class _Series:
    """The unfired tail of one :meth:`Kernel.schedule_series` call.

    Holds the instants, the shared callback and the first of the
    sequence numbers reserved for them; at most one pooled ``_Event``
    (whose callback is :meth:`fire`) is queued for the whole run.
    """

    __slots__ = ("_times", "_count", "_callback", "_label", "_sequence", "_next")

    def __init__(
        self,
        times: Sequence[Seconds],
        callback: EventCallback,
        label: str,
        sequence: int,
    ) -> None:
        self._times = times
        self._count = len(times)
        self._callback = callback
        self._label = label
        self._sequence = sequence
        #: Index of the next instant to queue (0 is queued at registration).
        self._next = 1

    def fire(self, kernel: "Kernel") -> None:
        """Dispatch one instant: queue its successor, then run the callback.

        In that order, so that while the callback runs the successor is
        already queued, exactly as if every instant had been scheduled
        up front (it shows in ``peek_next_time`` and survives a raising
        callback).
        """
        index = self._next
        if index < self._count:
            when = self._times[index]
            if when < kernel.time:
                raise SchedulingInPastError(kernel.time, when)
            self._next = index + 1
            # What Kernel.schedule_raw does, under the sequence number
            # reserved at registration.  _drain released the firing
            # record just before calling here, so the pool is not empty.
            event = kernel._free.pop()
            event.generation += 1
            event.time = when
            event.callback = self.fire
            event.label = self._label
            event.cancelled = False
            event.fired = False
            kernel._push((when, self._sequence + index, event))
        self._callback(kernel)


class Kernel:
    """The discrete-event simulation engine.

    Args:
        start_time: Initial clock value.
        scheduler: ``"heap"`` (default — the ``heapq`` binary heap) or
            ``"wheel"`` (the calendar queue in :mod:`repro.sim.wheel`).
            Dispatch order is identical; the knob exists for
            differential testing and benchmarking.

    The scheduler's ``push`` / ``pop`` / ``size`` are bound once here;
    every scheduling and run method goes through those three and never
    branches on the kind.  The kernel, not the scheduler, owns lazy
    cancellation (skip and recycle), the ``until`` horizon and the
    event pool — all in :meth:`_drain`.

    ``time`` is the current simulation time: a plain attribute, so a
    per-poll clock read costs no call.  Read it, never assign it;
    :meth:`now` returns it as a callable clock.

    Example:
        >>> k = Kernel()
        >>> fired = []
        >>> _ = k.schedule_at(5.0, lambda kern: fired.append(kern.now()))
        >>> k.run()
        >>> fired
        [5.0]
    """

    __slots__ = (
        "time",
        "_scheduler",
        "_scheduler_kind",
        "_push",
        "_pop",
        "_size",
        "_sequence",
        "_running",
        "_events_processed",
        "_free",
        "_open_time",
        "_open",
        "_open_end",
        "_batches",
        "_rest",
        "_walk",
    )

    def __init__(
        self, start_time: Seconds = 0.0, *, scheduler: str = "heap"
    ) -> None:
        if start_time < 0:
            raise ValueError(f"start_time must be >= 0, got {start_time}")
        self.time: Seconds = start_time
        self._free: List[_Event] = []
        self._scheduler: Scheduler[_Event] = make_scheduler(scheduler)
        self._scheduler_kind = scheduler
        # The seam's three primitives, bound once: C callables for the
        # heap, so scheduling and dispatch enter no scheduler frame.
        self._push = self._scheduler.push
        self._pop = self._scheduler.pop
        self._size = self._scheduler.size
        self._sequence = 0
        self._running = False
        self._events_processed = 0
        # The instant of the last ordinary schedule; the latest batch,
        # and the sequence number that may still join it (-1 once the
        # batch is popped).  Any other number drawn in between is a push
        # or a series reservation, so contiguity is the whole open test.
        self._open_time: Seconds = -1.0
        self._open = _Batch()
        self._open_end = -1
        # Batches on the scheduler, and the unconsumed rest of the one
        # being dispatched: the members introspection has to count.
        self._batches: Set[_Batch] = set()
        self._rest: Optional[_Batch] = None
        self._walk: Iterator[_Event] = iter(())

    # ------------------------------------------------------------------
    # Clock protocol
    # ------------------------------------------------------------------
    def now(self) -> Seconds:
        """Current simulation time, :attr:`time` as a callable clock
        (what a cache's ``bind_clock`` takes)."""
        return self.time

    @property
    def scheduler_kind(self) -> str:
        """Which scheduler implementation backs this kernel."""
        return self._scheduler_kind

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_raw(
        self, when: Seconds, callback: EventCallback, label: str = ""
    ) -> _Event:
        """Schedule ``callback`` at ``when``; return the bare event record.

        The allocation-free inner path behind :meth:`schedule_at` and
        the timer helpers in :mod:`repro.sim.timers`: the record comes
        from the kernel's free list when one is available, and no
        :class:`EventHandle` is built.  Callers that hold the record may
        cancel it by setting ``cancelled`` while its ``generation`` is
        unchanged; anything longer-lived should take a handle instead.

        Raises:
            SchedulingInPastError: if ``when`` precedes the current time.
        """
        if when < self.time:
            raise SchedulingInPastError(self.time, when)
        free = self._free
        if free:
            event = free.pop()
            event.generation += 1
            event.time = when
            event.callback = callback
            event.label = label
            event.cancelled = False
            event.fired = False
        else:
            event = _Event(when, callback, label)
        sequence = self._sequence
        self._sequence = sequence + 1
        if when == self._open_time:
            if sequence == self._open_end:
                self._open.append(event)
            else:
                batch = self._open = _Batch((event,))
                self._batches.add(batch)
                self._push((when, sequence, cast(_Event, batch)))
            self._open_end = sequence + 1
        else:
            self._open_time = when
            self._push((when, sequence, event))
        return event

    def schedule_at(
        self, when: Seconds, callback: EventCallback, *, label: str = ""
    ) -> EventHandle:
        """Schedule ``callback`` to run at absolute time ``when``.

        Raises:
            SchedulingInPastError: if ``when`` precedes the current time.
        """
        # Mirrors schedule_raw rather than calling it: this is the
        # public per-event entry point, and the extra frame is
        # measurable under client-arrival workloads.
        if when < self.time:
            raise SchedulingInPastError(self.time, when)
        free = self._free
        if free:
            event = free.pop()
            event.generation += 1
            event.time = when
            event.callback = callback
            event.label = label
            event.cancelled = False
            event.fired = False
        else:
            event = _Event(when, callback, label)
        sequence = self._sequence
        self._sequence = sequence + 1
        if when == self._open_time:
            if sequence == self._open_end:
                self._open.append(event)
            else:
                batch = self._open = _Batch((event,))
                self._batches.add(batch)
                self._push((when, sequence, cast(_Event, batch)))
            self._open_end = sequence + 1
        else:
            self._open_time = when
            self._push((when, sequence, event))
        return EventHandle(event)

    def schedule_after(
        self, delay: Seconds, callback: EventCallback, *, label: str = ""
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self.time + delay, callback, label=label)

    def schedule_series(
        self,
        times: Sequence[Seconds],
        callback: EventCallback,
        *,
        label: str = "",
    ) -> None:
        """Schedule ``callback`` at each instant of an ascending run.

        Dispatch is identical to ``for t in times: schedule_at(t,
        callback, label=label)`` issued at this point — every instant is
        its own event, counted in :attr:`events_processed`, and ties
        with events scheduled before or after this call break exactly
        as they would for the loop — but only the next unfired instant
        is ever queued, so a long trace costs one pending event instead
        of one per record (:attr:`pending_count` is the one observable
        that differs).  Successors are queued from inside dispatch,
        before ``callback`` runs.

        ``times`` must be sorted (equal neighbours allowed) and must not
        change afterwards; no handle is returned, a series cannot be
        cancelled.

        Raises:
            SchedulingInPastError: at once if ``times[0]`` precedes the
                current time; from the dispatch of the preceding instant
                if a later element breaks the ordering.
        """
        if not times:
            return
        series = _Series(times, callback, label, self._sequence)
        # The first instant draws the block's first number the ordinary
        # way; the rest of the block is reserved for the successors.
        self.schedule_raw(times[0], series.fire, label)
        self._sequence += len(times) - 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next pending event.

        Returns:
            True if an event was processed, False if the queue is empty.

        Raises:
            SimulationError: if called from a callback while the kernel
                is dispatching.
        """
        if self._running:
            raise SimulationError("kernel is already running (re-entrant step())")
        self._running = True
        try:
            return self._drain(None, 1) == 1
        finally:
            self._running = False

    def _drain(self, until: Optional[Seconds], max_events: Optional[int]) -> int:
        """Dispatch pending events in (time, sequence) order.

        The single pop loop behind :meth:`step`, :meth:`run`, and
        :meth:`run_batch`, for either scheduler.  A cancelled entry is
        skipped and its record recycled; the first live entry past
        ``until`` is pushed back unchanged — same ``(time, sequence)``,
        handle still pending — and ends the loop (events exactly at
        ``until`` are dispatched); the clock is left at the last
        dispatched event.  Fired records are released to the free list
        *before* their callback runs, so the fire→re-arm pattern reuses
        the same record without growing the pool.  Emptiness is tested,
        never caught: an ``IndexError`` here is a callback's own.
        Callers own the ``_running`` guard and the end-of-run clock
        policy.

        A popped batch closes and is walked in place, first member
        first, as :attr:`_rest` through the iterator :attr:`_walk`,
        whose length hint is the number of members still to come;
        cancelled members are skipped and recycled.  A stop inside it —
        ``max_events``, or a callback that raises — pushes the
        unconsumed rest back under the batch's own entry.
        """
        processed = 0
        pop = self._pop
        size = self._size
        free = self._free
        try:
            while processed != max_events and size():
                entry = pop()
                event = entry[2]
                if event.cancelled:
                    free.append(event)
                    continue
                if until is not None and entry[0] > until:
                    self._push(entry)
                    break
                callback = event.callback
                if callback is not None:
                    self.time = entry[0]
                    event.fired = True
                    free.append(event)
                    callback(self)
                    processed += 1
                    continue
                batch = cast(_Batch, event)
                if batch is self._open:
                    self._open_end = -1
                self._batches.remove(batch)
                time = entry[0]
                self._rest = batch
                walk = self._walk = iter(batch)
                try:
                    for member in walk:
                        if member.cancelled:
                            free.append(member)
                            continue
                        self.time = time
                        member.fired = True
                        callback = member.callback
                        free.append(member)
                        callback(self)
                        processed += 1
                        if processed == max_events:
                            break
                finally:
                    self._rest = None
                    left = length_hint(walk)
                    if left:
                        del batch[: len(batch) - left]
                        self._batches.add(batch)
                        self._push(entry)
        finally:
            # Folded in once per drain, not per event; the finally
            # keeps the count honest when a callback raises.
            self._events_processed += processed
        return processed

    def run(
        self,
        *,
        until: Optional[Seconds] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queue is empty, ``until`` is reached, or
        ``max_events`` events have been processed.

        Events scheduled exactly at ``until`` are processed; the clock is
        advanced to ``until`` at the end even when the queue empties
        earlier, so time-weighted statistics cover the full horizon —
        unless ``max_events`` ended the run, which may leave events
        before ``until`` pending: the clock then stays at the last one
        dispatched.

        Returns:
            The number of events processed by this call.

        Raises:
            ValueError: if ``max_events`` is negative (0 dispatches nothing).
        """
        if self._running:
            raise SimulationError("kernel is already running (re-entrant run())")
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        if until is not None and until < self.time:
            raise SimulationError(
                f"cannot run until t={until}, already at t={self.time}"
            )
        self._running = True
        before = self._events_processed
        processed = 0
        try:
            processed = self._drain(until, max_events)
            if until is not None and self.time < until and processed != max_events:
                self.time = until
        finally:
            self._running = False
            global _TOTAL_EVENTS
            _TOTAL_EVENTS += self._events_processed - before
        return processed

    def run_batch(
        self,
        until: Seconds,
        *,
        max_events: Optional[int] = None,
    ) -> int:
        """Drain every pending event with time <= ``until`` in one call.

        The batch-dispatch seam behind the analytic fast-forward engine
        (:mod:`repro.sim.fastforward`): event ordering and bookkeeping
        are identical to :meth:`run`, but the clock is left at the last
        dispatched event — never finalized to ``until`` — so a caller
        can interleave dispatch batches with :meth:`advance_clock`
        jumps through intervals it has proven event-free.

        Returns:
            The number of events processed by this call.

        Raises:
            ValueError: if ``max_events`` is negative (0 dispatches nothing).
        """
        if self._running:
            raise SimulationError(
                "kernel is already running (re-entrant run_batch())"
            )
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        if until < self.time:
            raise SimulationError(
                f"cannot run batch until t={until}, already at t={self.time}"
            )
        self._running = True
        before = self._events_processed
        processed = 0
        try:
            processed = self._drain(until, max_events)
        finally:
            self._running = False
            global _TOTAL_EVENTS
            _TOTAL_EVENTS += self._events_processed - before
        return processed

    def peek_next_time(self) -> Optional[Seconds]:
        """Earliest pending event time, or ``None`` when the queue is empty.

        Cancelled heads — events, and batches with no live member — are
        dropped as a side effect, so the returned time always belongs to
        an event that will actually fire.  From inside a batch's
        dispatch, its live rest is the earliest.
        """
        if self._rest is not None and any(
            not event.cancelled for event in self._unconsumed()
        ):
            return self.time
        peek = self._scheduler.peek
        while True:
            entry = peek()
            if entry is None:
                return None
            if entry[2].callback is not None:
                return entry[0]
            batch = cast(_Batch, entry[2])
            if any(not event.cancelled for event in batch):
                return entry[0]
            self._pop()
            if batch is self._open:
                self._open_end = -1
            self._batches.remove(batch)
            self._free.extend(batch)

    def advance_clock(self, to: Seconds) -> None:
        """Move the clock forward through an event-free interval.

        The analytic fast-forward seam: the caller asserts nothing
        observable happens in ``(now, to)``.  Refuses to run backwards
        or to jump past a pending event (events exactly at ``to`` may
        stay pending — they are the next thing dispatched).
        """
        if to < self.time:
            raise SimulationError(
                f"cannot advance clock to t={to}, already at t={self.time}"
            )
        pending = self.peek_next_time()
        if pending is not None and pending < to:
            raise SimulationError(
                f"cannot advance clock to t={to}: event pending at t={pending}"
            )
        self.time = to
        self._scheduler.advance(to)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of pending (non-cancelled) events."""
        # The scheduler counts each queued batch as one entry.
        count = self._scheduler.pending_count()
        for batch in self._batches:
            count += _live(batch) - 1
        return count + _live(self._unconsumed())

    def _unconsumed(self) -> List[_Event]:
        """The members of the batch being dispatched still to come."""
        batch = self._rest
        if batch is None:
            return []
        return batch[len(batch) - length_hint(self._walk) :]

    @property
    def events_processed(self) -> int:
        """Total events processed over the kernel's lifetime."""
        return self._events_processed

    def __repr__(self) -> str:
        return (
            f"Kernel(now={self.time}, pending={self.pending_count}, "
            f"processed={self._events_processed})"
        )


#: Process-local running total of events processed by every Kernel.run()
#: call, used by the benchmark harness to derive events/sec without
#: threading a kernel reference through each experiment's return value.
#: (Sweep points executed in worker processes accumulate into their own
#: process's total; the harness reports the main-process delta.)
_TOTAL_EVENTS = 0


def total_events_processed() -> int:
    """Events processed by all ``Kernel.run()`` calls in this process."""
    return _TOTAL_EVENTS
