"""Differential tests: the timer wheel dispatches exactly like the heap.

The scheduler seam (:class:`repro.sim.kernel.Scheduler`) promises that
the choice of implementation is unobservable: for any interleaving of
schedule / cancel / run / advance operations, the wheel and the heap
must fire the same events at the same times in the same sequence
order — including same-tick ties and lazily cancelled entries.  These
tests drive both kernels through identical randomized operation scripts
(hypothesis) and compare the full dispatch transcripts.

:meth:`~repro.sim.kernel.Kernel.schedule_series` makes the same kind of
promise — a series is unobservable next to the ``schedule_at`` loop it
stands for — and is pinned the same way, on both schedulers.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Kernel
from repro.sim.timers import RestartableTimer

#: A dispatch transcript entry: (fire time, event label).  Labels are
#: unique per scheduled event, so transcript equality pins the exact
#: (time, sequence) dispatch order, not just the times.
Transcript = List[Tuple[float, str]]

# Quantized delays collide often (coincident timestamps exercise the
# sequence tie-break); the float tail covers arbitrary spacings, and
# the large values push entries into the wheel's overflow spill.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.sampled_from([5_000.0, 80_000.0, 2_000_000.0]),
)

_MAX_EVENTS = st.one_of(st.none(), st.integers(min_value=0, max_value=4))

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("chain"), _DELAYS, _DELAYS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=999)),
        # (window, max_events): a bounded drain stops short of the
        # horizon, an unbounded one hands back the first entry past it.
        st.tuples(st.just("run"), _DELAYS, _MAX_EVENTS),
        st.tuples(st.just("run_batch"), _DELAYS, _MAX_EVENTS),
        st.tuples(st.just("step"), st.just(0)),
        st.tuples(st.just("advance"), _DELAYS),
    ),
    max_size=60,
)


def _execute(scheduler: str, ops: List[Tuple[object, ...]]) -> Transcript:
    """Run one operation script on a fresh kernel; return its transcript."""
    kernel = Kernel(scheduler=scheduler)
    fired: Transcript = []
    handles = []
    labels = iter(range(10**6))

    def recorder(label: str) -> Callable[[Kernel], None]:
        return lambda k: fired.append((k.now(), label))

    def chained(label: str, delay: float) -> Callable[[Kernel], None]:
        # Schedule-during-callback: the follow-up competes for sequence
        # numbers with everything else scheduled mid-run.
        def fire(k: Kernel) -> None:
            fired.append((k.now(), label))
            k.schedule_at(
                k.now() + delay, recorder(f"{label}+"), label=f"{label}+"
            )

        return fire

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            label = f"e{next(labels)}"
            handles.append(
                kernel.schedule_at(
                    kernel.now() + float(op[1]), recorder(label), label=label
                )
            )
        elif kind == "chain":
            label = f"c{next(labels)}"
            handles.append(
                kernel.schedule_at(
                    kernel.now() + float(op[1]),
                    chained(label, float(op[2])),
                    label=label,
                )
            )
        elif kind == "cancel":
            if handles:
                handle = handles[int(op[1]) % len(handles)]
                if handle.pending:
                    handle.cancel()
        else:
            if kind == "run":
                kernel.run(until=kernel.now() + float(op[1]), max_events=op[2])
            elif kind == "run_batch":
                kernel.run_batch(kernel.now() + float(op[1]), max_events=op[2])
            elif kind == "step":
                kernel.step()
            else:  # advance: clamp to the next pending event, as the
                # fast-forward engine's analytic jumps do.
                target = kernel.now() + float(op[1])
                pending = kernel.peek_next_time()
                if pending is not None and pending < target:
                    target = pending
                kernel.advance_clock(target)
            # Checkpoint the queue state into the transcript, so a
            # wheel/heap divergence in pending bookkeeping or the next
            # visible head fails the comparison even if dispatch order
            # happens to agree.
            fired.append((float(kernel.pending_count), "#pending"))
            head = kernel.peek_next_time()
            fired.append((-1.0 if head is None else head, "#head"))
    kernel.run()
    return fired


class TestSchedulerEquivalence:
    @given(_OPS)
    @settings(max_examples=200, deadline=None)
    def test_wheel_matches_heap_transcript(self, ops):
        assert _execute("wheel", ops) == _execute("heap", ops)

    @given(
        st.lists(
            st.sampled_from([0.0, 1.0, 1.0, 3.0]), min_size=1, max_size=30
        ),
        st.sets(st.integers(min_value=0, max_value=29)),
    )
    @settings(max_examples=100)
    def test_coincident_timestamps_fire_in_arm_order(self, delays, cancels):
        """Heavily colliding schedules + cancels keep FIFO tie order."""
        transcripts = []
        for scheduler in ("wheel", "heap"):
            kernel = Kernel(scheduler=scheduler)
            fired: Transcript = []
            handles = [
                kernel.schedule_at(
                    delay,
                    (lambda lab: lambda k: fired.append((k.now(), lab)))(
                        f"e{index}"
                    ),
                    label=f"e{index}",
                )
                for index, delay in enumerate(delays)
            ]
            for index in sorted(cancels):
                if index < len(handles) and handles[index].pending:
                    handles[index].cancel()
            kernel.run()
            transcripts.append(fired)
        assert transcripts[0] == transcripts[1]
        # FIFO within each timestamp: label indices increase per time.
        by_time: dict = {}
        for time, label in transcripts[0]:
            by_time.setdefault(time, []).append(int(label[1:]))
        for indices in by_time.values():
            assert indices == sorted(indices)

    @pytest.mark.parametrize("cancelled_share", [0.0, 0.5, 1.0])
    def test_crowded_slots_match_heap(self, cancelled_share):
        """Past its crowding limit the wheel purges and re-slots.

        Thousands of entries per slot — live, half cancelled, or all
        cancelled (the wheel may purge those itself, but never a pop the
        kernel has been promised) — with a horizon hand-back in between.
        """
        transcripts = []
        for scheduler in ("wheel", "heap"):
            rng = random.Random(5)
            kernel = Kernel(scheduler=scheduler)
            fired: Transcript = []
            for spread in (2.0, 50_000.0, 2.0):
                handles = [
                    kernel.schedule_at(
                        kernel.now() + rng.random() * spread,
                        lambda k: fired.append((k.now(), "e")),
                    )
                    for _ in range(3000)
                ]
                for handle in handles:
                    if rng.random() < cancelled_share:
                        handle.cancel()
                far = kernel.schedule_at(kernel.now() + 1e6, lambda k: None)
                kernel.run(until=kernel.now() + 0.5)
                fired.append((float(kernel.pending_count), "#pending"))
                far.cancel()
            kernel.run()
            fired.append((float(kernel.events_processed), "#processed"))
            transcripts.append(fired)
        assert transcripts[0] == transcripts[1]

    def test_events_processed_and_clock_agree(self):
        kernels = {
            kind: Kernel(scheduler=kind) for kind in ("wheel", "heap")
        }
        for kernel in kernels.values():
            for index in range(100):
                kernel.schedule_at(float(index % 7), lambda k: None)
            kernel.run(until=3.0)
        wheel, heap = kernels["wheel"], kernels["heap"]
        assert wheel.events_processed == heap.events_processed
        assert wheel.now() == heap.now()
        assert wheel.pending_count == heap.pending_count


# Quantized gaps make instants of one series coincide with each other,
# with other series, with plain events and with timer re-arms.
_GAPS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])

_SERIES_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _GAPS),
        # (first delay, gaps between instants, follow-up delay or None)
        st.tuples(
            st.just("series"),
            _GAPS,
            st.lists(_GAPS, max_size=8),
            st.one_of(st.none(), _GAPS),
        ),
        # (first delay, period, re-arms)
        st.tuples(
            st.just("timer"), _GAPS, _GAPS, st.integers(min_value=0, max_value=4)
        ),
        st.tuples(st.just("run"), _GAPS),
        st.tuples(st.just("run_batch"), _GAPS, st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("run_max"), st.integers(min_value=1, max_value=4)),
    ),
    max_size=25,
)


def _execute_series(
    scheduler: str, ops: List[Tuple[object, ...]], *, expand: bool
) -> Transcript:
    """Run a script with each series as one call or as its ``schedule_at`` loop."""
    kernel = Kernel(scheduler=scheduler)
    fired: Transcript = []
    labels = iter(range(10**6))

    def recorder(label: str) -> Callable[[Kernel], None]:
        return lambda k: fired.append((k.now(), label))

    def series_callback(label: str, follow: object) -> Callable[[Kernel], None]:
        def on_instant(k: Kernel) -> None:
            fired.append((k.now(), label))
            # The successor instant is already queued while this one
            # runs, as it would be had all been scheduled up front.
            head = k.peek_next_time()
            fired.append((-1.0 if head is None else head, f"{label}#head"))
            if follow is not None:
                # Work scheduled from inside the series competes with
                # the series' own reserved successors.
                k.schedule_at(
                    k.now() + follow, recorder(f"{label}+"), label=f"{label}+"
                )

        return on_instant

    def start_timer(label: str, delay: float, period: float, rearms: int) -> None:
        left = [rearms]

        def on_expiry(now: float) -> None:
            fired.append((now, label))
            if left[0]:
                left[0] -= 1
                timer.arm_after(period)

        timer = RestartableTimer(kernel, on_expiry, label=label)
        timer.arm_after(delay)

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            label = f"e{next(labels)}"
            kernel.schedule_at(kernel.now() + op[1], recorder(label), label=label)
        elif kind == "series":
            label = f"s{next(labels)}"
            times = [kernel.now() + op[1]]
            for gap in op[2]:
                times.append(times[-1] + gap)
            on_instant = series_callback(label, op[3])
            if expand:
                for when in times:
                    kernel.schedule_at(when, on_instant, label=label)
            else:
                kernel.schedule_series(times, on_instant, label=label)
        elif kind == "timer":
            start_timer(f"t{next(labels)}", op[1], op[2], op[3])
        else:
            if kind == "run":
                kernel.run(until=kernel.now() + op[1])
            elif kind == "run_batch":
                kernel.run_batch(kernel.now() + op[1], max_events=op[2])
            else:
                kernel.run(max_events=op[1])
            # A stop may land between two instants of a series: the
            # count so far and the next visible head must still agree.
            fired.append((float(kernel.events_processed), "#processed"))
            head = kernel.peek_next_time()
            fired.append((-1.0 if head is None else head, "#head"))
    kernel.run()
    fired.append((float(kernel.events_processed), "#processed"))
    return fired


class TestSeriesEquivalence:
    @given(_SERIES_OPS)
    @settings(max_examples=200, deadline=None)
    def test_series_matches_its_schedule_at_loop(self, ops):
        reference = _execute_series("heap", ops, expand=True)
        for scheduler in ("heap", "wheel"):
            assert _execute_series(scheduler, ops, expand=False) == reference
        assert _execute_series("wheel", ops, expand=True) == reference


# ----------------------------------------------------------------------
# Batches against an independent reference
# ----------------------------------------------------------------------
# Events scheduled consecutively for one instant share one scheduler
# entry.  The property below drives the kernel, on both schedulers, and
# a plain list of pending events sorted by (time, sequence) through one
# script, and compares everything observable: dispatch order, and the
# clock, next time and pending count read from inside every callback.


class _Boom(Exception):
    """Raised by a callback to stop a run mid-instant."""


class _ListEvent:
    __slots__ = ("time", "sequence", "callback", "series", "cancelled", "fired")

    def __init__(self, time, sequence, callback, series):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.series = series
        self.cancelled = False
        self.fired = False

    @property
    def pending(self) -> bool:
        return not (self.cancelled or self.fired)

    def cancel(self) -> None:
        assert self.pending
        self.cancelled = True


class _ListKernel:
    """The reference: every pending event in a list, the least
    ``(time, sequence)`` dispatched next.  A series counts as one
    pending event while any of its instants is left, as in the kernel."""

    def __init__(self) -> None:
        self.time = 0.0
        self.events_processed = 0
        self._pending: List[_ListEvent] = []
        self._sequence = 0

    def now(self) -> float:
        return self.time

    def schedule_at(self, when, callback, *, label=""):
        event = _ListEvent(when, self._sequence, callback, None)
        self._sequence += 1
        self._pending.append(event)
        return event

    def schedule_series(self, times, callback, *, label=""):
        series = object()
        for index, when in enumerate(times):
            self._pending.append(
                _ListEvent(when, self._sequence + index, callback, series)
            )
        self._sequence += len(times)

    def _live(self) -> List[_ListEvent]:
        return sorted(
            (event for event in self._pending if not event.cancelled),
            key=lambda event: (event.time, event.sequence),
        )

    def _drain(self, until, max_events) -> int:
        processed = 0
        try:
            while processed != max_events:
                live = self._live()
                if not live or (until is not None and live[0].time > until):
                    break
                head = live[0]
                self._pending.remove(head)
                self.time = head.time
                head.fired = True
                head.callback(self)
                processed += 1
        finally:
            self.events_processed += processed
        return processed

    def run(self, *, until=None, max_events=None) -> int:
        processed = self._drain(until, max_events)
        if until is not None and self.time < until and processed != max_events:
            self.time = until
        return processed

    def run_batch(self, until, *, max_events=None) -> int:
        return self._drain(until, max_events)

    def step(self) -> bool:
        return self._drain(None, 1) == 1

    def peek_next_time(self):
        live = self._live()
        return live[0].time if live else None

    def advance_clock(self, to) -> None:
        head = self.peek_next_time()
        assert to >= self.time and (head is None or head >= to)
        self.time = to

    @property
    def pending_count(self) -> int:
        live = [event for event in self._pending if not event.cancelled]
        return sum(1 for event in live if event.series is None) + len(
            {id(event.series) for event in live if event.series is not None}
        )


_INSTANTS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])

#: What a callback does after recording itself: nothing, schedule at
#: the current instant, cancel an event (often a later member of its
#: own batch), schedule later, or raise.
_ACTIONS = st.one_of(
    st.just(("record",)),
    st.just(("same",)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=999)),
    st.tuples(st.just("later"), _INSTANTS),
    st.just(("raise",)),
)

_STOPS = st.one_of(st.none(), st.integers(min_value=0, max_value=6))

_BATCH_OPS = st.lists(
    st.one_of(
        # Many events at one instant, each with its own action.
        st.tuples(
            st.just("burst"), _INSTANTS, st.lists(_ACTIONS, min_size=1, max_size=12)
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=999)),
        # The newest handles, so whole batches go dead.
        st.tuples(st.just("cancel_last"), st.integers(min_value=1, max_value=12)),
        st.tuples(st.just("series"), _INSTANTS, st.lists(_INSTANTS, max_size=5)),
        st.tuples(st.just("run"), _INSTANTS, _STOPS),
        st.tuples(st.just("run_batch"), _INSTANTS, _STOPS),
        st.tuples(st.just("run_max"), st.integers(min_value=0, max_value=6)),
        st.tuples(st.just("step")),
        st.tuples(st.just("advance"), _INSTANTS),
    ),
    max_size=30,
)


def _play(kernel, ops: List[Tuple[object, ...]]) -> List[Tuple[object, ...]]:
    """Run one script on ``kernel``; return what it could observe."""
    seen: List[Tuple[object, ...]] = []
    handles: list = []
    labels = iter(range(10**6))

    def observe(label: str) -> None:
        seen.append(
            (kernel.now(), label, kernel.peek_next_time(), kernel.pending_count)
        )

    def callback(label: str, action: Tuple[object, ...]):
        def fire(k) -> None:
            observe(label)
            kind = action[0]
            if kind == "same":
                handles.append(
                    k.schedule_at(k.now(), callback(f"{label}=", ("record",)))
                )
            elif kind == "later":
                handles.append(
                    k.schedule_at(
                        k.now() + action[1], callback(f"{label}+", ("record",))
                    )
                )
            elif kind == "cancel" and handles:
                handle = handles[action[1] % len(handles)]
                if handle.pending:
                    handle.cancel()
            elif kind == "raise":
                raise _Boom(label)

        return fire

    def stopped(run: Callable[[], object]) -> None:
        try:
            run()
        except _Boom as boom:
            seen.append(("raised", str(boom)))

    for op in ops:
        kind = op[0]
        now = kernel.now()
        if kind == "burst":
            for action in op[2]:
                label = f"b{next(labels)}"
                handles.append(
                    kernel.schedule_at(now + op[1], callback(label, action))
                )
        elif kind == "cancel":
            if handles:
                handle = handles[op[1] % len(handles)]
                if handle.pending:
                    handle.cancel()
        elif kind == "cancel_last":
            for handle in [h for h in handles if h.pending][-op[1] :]:
                handle.cancel()
        elif kind == "series":
            times = [now + op[1]]
            for gap in op[2]:
                times.append(times[-1] + gap)
            kernel.schedule_series(times, callback(f"s{next(labels)}", ("record",)))
        else:
            if kind == "run":
                stopped(lambda: kernel.run(until=now + op[1], max_events=op[2]))
            elif kind == "run_batch":
                stopped(lambda: kernel.run_batch(now + op[1], max_events=op[2]))
            elif kind == "run_max":
                stopped(lambda: kernel.run(max_events=op[1]))
            elif kind == "step":
                stopped(kernel.step)
            else:
                target = now + op[1]
                head = kernel.peek_next_time()
                kernel.advance_clock(target if head is None else min(head, target))
            observe("#checkpoint")
            seen.append(("#processed", kernel.events_processed))
    while True:
        try:
            kernel.run()
            break
        except _Boom as boom:
            seen.append(("raised", str(boom)))
    observe("#end")
    return seen


class TestBatchesMatchAReference:
    @given(_BATCH_OPS)
    @settings(max_examples=300, deadline=None)
    def test_dispatch_matches_a_sorted_list(self, ops):
        reference = _play(_ListKernel(), ops)
        for scheduler in ("heap", "wheel"):
            assert _play(Kernel(scheduler=scheduler), ops) == reference

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_an_instant_is_queued_as_two_entries(self, scheduler):
        """A thousand events at one instant: the first, then one batch.
        A stop inside the batch hands its rest back as one entry."""
        kernel = Kernel(scheduler=scheduler)
        fired = []
        for index in range(1000):
            kernel.schedule_at(1.0, lambda k, i=index: fired.append(i))
        assert kernel._scheduler.size() == 2
        assert kernel.run(max_events=400) == 400
        assert kernel._scheduler.size() == 1
        assert (kernel.pending_count, kernel.peek_next_time()) == (600, 1.0)
        kernel.run()
        assert fired == list(range(1000))

    def test_an_instant_reopens_after_its_batch_fired(self):
        """A batch off the scheduler takes no member: an event scheduled
        for its instant after it fired is queued, and fires."""
        kernel = Kernel()
        fired = []
        for index in range(3):
            kernel.schedule_at(1.0, lambda k, i=index: fired.append(i))
        kernel.run(until=1.0)
        kernel.schedule_at(1.0, lambda k: fired.append("late"))
        assert (kernel.pending_count, kernel.peek_next_time()) == (1, 1.0)
        kernel.run()
        assert fired == [0, 1, 2, "late"]
