"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.core.errors import SchedulingInPastError, SimulationError
from repro.sim import kernel as kernel_module
from repro.sim.kernel import Kernel
from repro.sim.timers import RestartableTimer


class TestScheduling:
    def test_event_fires_at_scheduled_time(self, kernel):
        fired = []
        kernel.schedule_at(5.0, lambda k: fired.append(k.now()))
        kernel.run()
        assert fired == [5.0]

    def test_schedule_after_is_relative(self, kernel):
        fired = []
        kernel.schedule_at(3.0, lambda k: k.schedule_after(2.0, lambda k2: fired.append(k2.now())))
        kernel.run()
        assert fired == [5.0]

    def test_events_fire_in_time_order(self, kernel):
        order = []
        kernel.schedule_at(3.0, lambda k: order.append(3))
        kernel.schedule_at(1.0, lambda k: order.append(1))
        kernel.schedule_at(2.0, lambda k: order.append(2))
        kernel.run()
        assert order == [1, 2, 3]

    def test_ties_fire_fifo(self, kernel):
        order = []
        for tag in range(5):
            kernel.schedule_at(7.0, lambda k, t=tag: order.append(t))
        kernel.run()
        assert order == [0, 1, 2, 3, 4]

    def test_scheduling_in_past_rejected(self, kernel):
        kernel.schedule_at(10.0, lambda k: None)
        kernel.run()
        assert kernel.now() == 10.0
        with pytest.raises(SchedulingInPastError):
            kernel.schedule_at(5.0, lambda k: None)

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.schedule_after(-1.0, lambda k: None)

    def test_schedule_at_current_time_allowed(self, kernel):
        fired = []
        kernel.schedule_at(0.0, lambda k: fired.append(k.now()))
        kernel.run()
        assert fired == [0.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, kernel):
        fired = []
        handle = kernel.schedule_at(5.0, lambda k: fired.append(1))
        handle.cancel()
        kernel.run()
        assert fired == []
        assert handle.cancelled

    def test_double_cancel_raises(self, kernel):
        handle = kernel.schedule_at(5.0, lambda k: None)
        handle.cancel()
        with pytest.raises(SimulationError):
            handle.cancel()

    def test_cancel_after_fire_raises(self, kernel):
        handle = kernel.schedule_at(5.0, lambda k: None)
        kernel.run()
        assert handle.fired
        with pytest.raises(SimulationError):
            handle.cancel()

    def test_pending_state_transitions(self, kernel):
        handle = kernel.schedule_at(5.0, lambda k: None)
        assert handle.pending
        kernel.run()
        assert not handle.pending
        assert handle.fired


class TestRun:
    def test_run_until_stops_before_later_events(self, kernel):
        fired = []
        kernel.schedule_at(5.0, lambda k: fired.append(5))
        kernel.schedule_at(15.0, lambda k: fired.append(15))
        kernel.run(until=10.0)
        assert fired == [5]
        assert kernel.now() == 10.0

    def test_run_until_includes_boundary_events(self, kernel):
        fired = []
        kernel.schedule_at(10.0, lambda k: fired.append(10))
        kernel.run(until=10.0)
        assert fired == [10]

    def test_run_advances_clock_to_until_when_queue_empties(self, kernel):
        kernel.schedule_at(2.0, lambda k: None)
        kernel.run(until=100.0)
        assert kernel.now() == 100.0

    def test_run_resumable_after_until(self, kernel):
        fired = []
        kernel.schedule_at(5.0, lambda k: fired.append(5))
        kernel.schedule_at(15.0, lambda k: fired.append(15))
        kernel.run(until=10.0)
        kernel.run()
        assert fired == [5, 15]

    def test_run_until_in_past_rejected(self, kernel):
        kernel.schedule_at(5.0, lambda k: None)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.run(until=1.0)

    def test_max_events_limits_processing(self, kernel):
        fired = []
        for i in range(10):
            kernel.schedule_at(float(i), lambda k, i=i: fired.append(i))
        processed = kernel.run(max_events=3)
        assert processed == 3
        assert fired == [0, 1, 2]

    def test_max_events_does_not_move_the_clock_past_pending_events(self, kernel):
        fired = []
        for when in (1.0, 2.0, 3.0):
            kernel.schedule_at(when, lambda k: fired.append(k.now()))
        assert kernel.run(until=10.0, max_events=2) == 2
        assert kernel.now() == 2.0
        assert kernel.run(until=10.0, max_events=2) == 1
        assert (fired, kernel.now()) == ([1.0, 2.0, 3.0], 10.0)

    def test_negative_max_events_is_rejected_by_run(self, kernel):
        fired = []
        kernel.schedule_at(1.0, lambda k: fired.append(k.now()))
        with pytest.raises(ValueError, match="max_events"):
            kernel.run(max_events=-1)
        # Refused before the re-entrancy guard was taken, and 0 is legal.
        assert kernel.run(max_events=0) == 0
        assert fired == []
        assert kernel.run() == 1

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_event_past_until_is_handed_back_untouched(self, scheduler):
        kernel = Kernel(scheduler=scheduler)
        fired = []
        kernel.schedule_at(5.0, lambda k: fired.append("boundary"))
        first = kernel.schedule_at(5.5, lambda k: fired.append("first"))
        doomed = kernel.schedule_at(5.5, lambda k: fired.append("doomed"))
        second = kernel.schedule_at(5.5, lambda k: fired.append("second"))
        assert kernel.run(until=5.0) == 1
        assert fired == ["boundary"]
        assert (kernel.pending_count, kernel.peek_next_time()) == (3, 5.5)
        # A drain that only meets the horizon changes nothing it met.
        assert kernel.run(until=5.25) == 0
        assert kernel.run_batch(5.25) == 0
        assert (kernel.pending_count, kernel.peek_next_time()) == (3, 5.5)
        assert first.pending and doomed.pending and second.pending
        doomed.cancel()
        assert kernel.run() == 2
        assert fired == ["boundary", "first", "second"]

    def test_index_error_from_a_callback_is_the_callers_to_see(self, kernel):
        """The drain loop tests emptiness; it never catches IndexError."""
        fired = []
        kernel.schedule_at(1.0, lambda k: fired.append(k.now()))
        kernel.schedule_at(2.0, lambda k: [][0])
        kernel.schedule_at(3.0, lambda k: fired.append(k.now()))
        with pytest.raises(IndexError):
            kernel.run()
        # The event that completed is counted; the clock is where it broke.
        assert (fired, kernel.events_processed, kernel.now()) == ([1.0], 1, 2.0)
        assert kernel.run() == 1
        assert (fired, kernel.events_processed) == ([1.0, 3.0], 2)

    def test_reentrant_run_rejected(self, kernel):
        def reenter(k):
            k.run()

        kernel.schedule_at(1.0, reenter)
        with pytest.raises(SimulationError):
            kernel.run()

    def test_reentrant_step_rejected(self, kernel):
        """A nested step would dispatch past the rest of the instant
        being dispatched, so it is refused like a nested run."""
        fired = []

        def reenter(k):
            fired.append("outer")
            k.step()

        kernel.schedule_at(1.0, reenter)
        kernel.schedule_at(1.0, lambda k: fired.append("inner"))
        with pytest.raises(SimulationError, match="re-entrant step"):
            kernel.run()
        assert kernel.step() is True
        assert fired == ["outer", "inner"]

    def test_events_scheduled_during_run_are_processed(self, kernel):
        fired = []

        def chain(k):
            fired.append(k.now())
            if k.now() < 3.0:
                k.schedule_after(1.0, chain)

        kernel.schedule_at(0.0, chain)
        kernel.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]

    def test_returns_processed_count(self, kernel):
        for i in range(4):
            kernel.schedule_at(float(i), lambda k: None)
        assert kernel.run() == 4


class TestIntrospection:
    def test_pending_count_excludes_cancelled(self, kernel):
        h1 = kernel.schedule_at(1.0, lambda k: None)
        kernel.schedule_at(2.0, lambda k: None)
        h1.cancel()
        assert kernel.pending_count == 1

    def test_events_processed_accumulates(self, kernel):
        kernel.schedule_at(1.0, lambda k: None)
        kernel.run()
        kernel.schedule_at(2.0, lambda k: None)
        kernel.run()
        assert kernel.events_processed == 2

    def test_negative_start_time_rejected(self):
        with pytest.raises(ValueError):
            Kernel(start_time=-1.0)

    def test_heap_is_the_default_scheduler_and_wheel_stays_selectable(self):
        assert Kernel().scheduler_kind == "heap"
        assert Kernel(scheduler="wheel").scheduler_kind == "wheel"
        with pytest.raises(ValueError, match="unknown scheduler"):
            Kernel(scheduler="calendar")

    def test_step_returns_false_on_empty_queue(self, kernel):
        assert kernel.step() is False

    def test_step_processes_single_event(self, kernel):
        fired = []
        kernel.schedule_at(1.0, lambda k: fired.append(1))
        kernel.schedule_at(2.0, lambda k: fired.append(2))
        assert kernel.step() is True
        assert fired == [1]


class TestBatchDispatchSeam:
    """run_batch / peek_next_time / advance_clock — the fast-forward seam."""

    def test_run_batch_dispatches_events_up_to_until(self, kernel):
        fired = []
        for t in (1.0, 2.0, 3.0, 7.0):
            kernel.schedule_at(t, lambda k: fired.append(k.now()))
        assert kernel.run_batch(3.0) == 3
        assert fired == [1.0, 2.0, 3.0]
        assert kernel.pending_count == 1

    def test_run_batch_leaves_clock_at_last_event(self, kernel):
        kernel.schedule_at(2.0, lambda k: None)
        kernel.run_batch(5.0)
        # Unlike run(until=5.0), the clock is NOT finalized to until.
        assert kernel.now() == 2.0

    def test_run_batch_on_empty_window_is_a_no_op(self, kernel):
        kernel.schedule_at(9.0, lambda k: None)
        assert kernel.run_batch(5.0) == 0
        assert kernel.now() == 0.0

    def test_run_batch_includes_events_scheduled_during_batch(self, kernel):
        fired = []

        def chain(k):
            fired.append(k.now())
            if k.now() < 3.0:
                k.schedule_after(1.0, chain)

        kernel.schedule_at(1.0, chain)
        assert kernel.run_batch(3.0) == 3
        assert fired == [1.0, 2.0, 3.0]

    def test_run_batch_respects_max_events(self, kernel):
        for t in (1.0, 2.0, 3.0):
            kernel.schedule_at(t, lambda k: None)
        assert kernel.run_batch(10.0, max_events=2) == 2
        assert kernel.pending_count == 1

    def test_negative_max_events_is_rejected_by_run_batch(self, kernel):
        kernel.schedule_at(1.0, lambda k: None)
        with pytest.raises(ValueError, match="max_events"):
            kernel.run_batch(5.0, max_events=-1)
        assert kernel.run_batch(5.0, max_events=0) == 0
        assert kernel.run_batch(5.0) == 1

    def test_run_batch_counts_into_events_processed(self, kernel):
        kernel.schedule_at(1.0, lambda k: None)
        kernel.run_batch(1.0)
        assert kernel.events_processed == 1

    def test_peek_next_time_returns_earliest_pending(self, kernel):
        kernel.schedule_at(4.0, lambda k: None)
        kernel.schedule_at(2.0, lambda k: None)
        assert kernel.peek_next_time() == 2.0

    def test_peek_next_time_skips_cancelled_heads(self, kernel):
        handle = kernel.schedule_at(1.0, lambda k: None)
        kernel.schedule_at(6.0, lambda k: None)
        handle.cancel()
        assert kernel.peek_next_time() == 6.0

    def test_peek_next_time_empty_queue_is_none(self, kernel):
        assert kernel.peek_next_time() is None

    def test_advance_clock_moves_through_empty_interval(self, kernel):
        kernel.advance_clock(42.0)
        assert kernel.now() == 42.0

    def test_advance_clock_refuses_backwards(self, kernel):
        kernel.advance_clock(10.0)
        with pytest.raises(SimulationError):
            kernel.advance_clock(5.0)

    def test_advance_clock_refuses_to_jump_past_pending_event(self, kernel):
        kernel.schedule_at(3.0, lambda k: None)
        with pytest.raises(SimulationError):
            kernel.advance_clock(4.0)

    def test_advance_clock_allows_landing_exactly_on_pending_event(
        self, kernel
    ):
        fired = []
        kernel.schedule_at(3.0, lambda k: fired.append(k.now()))
        kernel.advance_clock(3.0)
        assert kernel.now() == 3.0
        kernel.run_batch(3.0)
        assert fired == [3.0]

    def test_interleaved_batches_match_plain_run(self):
        def build():
            k = Kernel()
            fired = []
            for t in (1.0, 2.5, 2.5, 4.0):
                k.schedule_at(t, lambda kk: fired.append(kk.now()))
            return k, fired

        plain, plain_fired = build()
        plain.run(until=5.0)

        seamed, seam_fired = build()
        while True:
            nxt = seamed.peek_next_time()
            if nxt is None or nxt > 5.0:
                break
            seamed.advance_clock(nxt)
            seamed.run_batch(nxt)
        seamed.advance_clock(5.0)

        assert seam_fired == plain_fired
        assert seamed.now() == plain.now() == 5.0
        assert seamed.events_processed == plain.events_processed


class TestScheduleSeries:
    """One pending entry per series; dispatch as the ``schedule_at`` loop.

    The randomized comparison against that loop lives in
    ``tests/test_scheduler_equivalence.py``; these pin the edges by hand.
    """

    def test_each_instant_is_one_event_with_one_pending_entry(self, kernel):
        fired = []
        kernel.schedule_series(
            [1.0, 2.0, 2.0, 5.0], lambda k: fired.append(k.now()), label="s"
        )
        assert kernel.pending_count == 1
        assert kernel.run(until=2.0) == 3
        assert fired == [1.0, 2.0, 2.0]
        assert kernel.pending_count == 1
        assert kernel.peek_next_time() == 5.0
        kernel.run()
        assert fired == [1.0, 2.0, 2.0, 5.0]
        assert kernel.events_processed == 4
        assert kernel.pending_count == 0

    def test_empty_series_schedules_nothing(self, kernel):
        kernel.schedule_series([], lambda k: None)
        assert kernel.pending_count == 0
        assert kernel.run() == 0

    def test_ties_break_by_registration_order_not_by_push_order(self, kernel):
        """Sequence numbers are reserved up front: an instant coincident
        with an event scheduled *after* the series still fires first,
        though it is pushed much later."""
        order = []
        kernel.schedule_at(4.0, lambda k: order.append("before"))
        kernel.schedule_series([1.0, 4.0], lambda k: order.append("series"))
        kernel.schedule_at(4.0, lambda k: order.append("after"))
        kernel.schedule_series([4.0], lambda k: order.append("later-series"))
        kernel.run()
        assert order == ["series", "before", "series", "after", "later-series"]

    def test_stop_in_the_middle_resumes_where_it_left_off(self, kernel):
        fired = []
        kernel.schedule_series(
            [1.0, 2.0, 3.0, 4.0], lambda k: fired.append(k.now())
        )
        assert kernel.run(max_events=1) == 1
        assert kernel.run_batch(10.0, max_events=2) == 2
        assert fired == [1.0, 2.0, 3.0]
        assert kernel.peek_next_time() == 4.0
        kernel.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_first_instant_in_the_past_is_rejected_at_once(self):
        kernel = Kernel(start_time=10.0)
        with pytest.raises(SchedulingInPastError):
            kernel.schedule_series([5.0, 20.0], lambda k: None)
        assert kernel.pending_count == 0

    def test_descending_series_raises_at_the_offending_element(self, kernel):
        fired = []
        kernel.schedule_series(
            [1.0, 3.0, 2.0, 9.0], lambda k: fired.append(k.now())
        )
        with pytest.raises(SchedulingInPastError):
            kernel.run()
        # 3.0 is where the breach is found: before its callback runs.
        assert fired == [1.0]
        assert kernel.now() == 3.0

    def test_successor_is_queued_before_the_callback_runs(self, kernel):
        """A raising callback does not lose the rest of the series."""
        fired = []

        def callback(k):
            fired.append((k.now(), k.peek_next_time()))
            if k.now() == 1.0:
                raise RuntimeError("boom")

        kernel.schedule_series([1.0, 2.0], callback)
        with pytest.raises(RuntimeError):
            kernel.run()
        kernel.run()
        assert fired == [(1.0, 2.0), (2.0, None)]


class TestDispatchFrames:
    """The default scheduler's per-event path runs no scheduler frame.

    Counted with ``sys.setprofile`` (deterministic, no clock): Python
    frames entered from ``sim/kernel.py`` while ``run()`` dispatches,
    ``now()`` apart.  ``run`` and ``_drain`` are entered once per run.
    """

    EVENTS = 1200

    def _kernel_frames(self, kernel):
        frames = Counter()
        source = kernel_module.__file__

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == source:
                frames[frame.f_code.co_qualname] += 1

        sys.setprofile(profiler)
        try:
            dispatched = kernel.run()
        finally:
            sys.setprofile(None)
        assert dispatched == self.EVENTS
        assert not [name for name in frames if name.startswith("HeapScheduler")]
        per_run = frames.pop("Kernel.run") + frames.pop("Kernel._drain")
        assert per_run == 2
        frames.pop("Kernel.now", None)
        return frames

    def test_schedule_at_chain_costs_two_kernel_frames_per_event(self, kernel):
        left = [self.EVENTS - 1]

        def link(k):
            if left[0]:
                left[0] -= 1
                k.schedule_at(k.now() + 1.0, link)

        kernel.schedule_at(1.0, link)
        frames = self._kernel_frames(kernel)
        assert set(frames) == {"Kernel.schedule_at", "EventHandle.__init__"}
        assert sum(frames.values()) <= 2 * self.EVENTS

    def test_rearming_timer_costs_one_kernel_frame_per_event(self, kernel):
        left = [self.EVENTS - 1]

        def on_expiry(now):
            if left[0]:
                left[0] -= 1
                timer.arm_after(1.0)

        timer = RestartableTimer(kernel, on_expiry)
        timer.arm_after(1.0)
        frames = self._kernel_frames(kernel)
        assert set(frames) == {"Kernel.schedule_raw"}
        assert sum(frames.values()) <= self.EVENTS
