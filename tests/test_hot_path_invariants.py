"""Property tests for the hot-path rewrites (PR 2).

The tuple-keyed kernel heap and the O(1) bin counter are drop-in
replacements for simpler reference implementations.  These tests pin
the equivalences:

* kernel dispatch order equals the reference ``(time, insertion-order)``
  stable sort — the old rich-comparison kernel's contract — including
  under lazy cancellation and mid-run scheduling;
* :func:`~repro.analysis.timeseries.bin_count` equals the list-based
  aggregate it replaced, on random series.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.timeseries import bin_count
from repro.sim.kernel import Kernel

# ---------------------------------------------------------------------------
# Kernel heap ordering / FIFO tie-break
# ---------------------------------------------------------------------------

times_lists = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, width=32),
    min_size=1,
    max_size=60,
)


class TestKernelOrdering:
    @given(times=times_lists)
    @settings(max_examples=60)
    def test_dispatch_matches_stable_sort_reference(self, times):
        """Events fire in (time, insertion order) — the old kernel's order."""
        kernel = Kernel()
        fired = []
        for index, when in enumerate(times):
            kernel.schedule_at(
                when, lambda _k, i=index: fired.append(i)
            )
        kernel.run()
        reference = [
            i for _, i in sorted((when, i) for i, when in enumerate(times))
        ]
        assert fired == reference

    @given(times=times_lists, data=st.data())
    @settings(max_examples=60)
    def test_cancellation_removes_exactly_the_cancelled(self, times, data):
        kernel = Kernel()
        fired = []
        handles = []
        for index, when in enumerate(times):
            handles.append(
                kernel.schedule_at(when, lambda _k, i=index: fired.append(i))
            )
        to_cancel = data.draw(
            st.sets(st.integers(0, len(times) - 1), max_size=len(times))
        )
        for index in to_cancel:
            handles[index].cancel()
        kernel.run()
        reference = [
            i
            for _, i in sorted((when, i) for i, when in enumerate(times))
            if i not in to_cancel
        ]
        assert fired == reference
        for index, handle in enumerate(handles):
            assert handle.cancelled == (index in to_cancel)
            assert handle.fired == (index not in to_cancel)

    @given(times=times_lists)
    @settings(max_examples=40)
    def test_same_time_followups_fire_after_existing_ties(self, times):
        """An event scheduled *at the current instant* from inside a
        callback runs after every already-queued event at that instant
        (insertion order is global, monotonic)."""
        kernel = Kernel()
        fired = []
        tie = max(times)
        for index, when in enumerate(times):
            kernel.schedule_at(when, lambda _k, i=index: fired.append(i))

        def spawn(k: Kernel) -> None:
            fired.append("spawner")
            k.schedule_at(tie, lambda _k: fired.append("followup"))

        kernel.schedule_at(tie, spawn)
        kernel.run()
        assert fired[-1] == "followup"
        assert fired[-2] == "spawner"

    def test_run_until_is_inclusive_and_advances_clock(self):
        kernel = Kernel()
        fired = []
        kernel.schedule_at(5.0, lambda k: fired.append(k.now()))
        kernel.schedule_at(10.0, lambda k: fired.append(k.now()))
        processed = kernel.run(until=5.0)
        assert processed == 1 and fired == [5.0] and kernel.now() == 5.0
        kernel.run(until=20.0)
        assert fired == [5.0, 10.0] and kernel.now() == 20.0


# ---------------------------------------------------------------------------
# Streaming accumulators vs list-based aggregates
# ---------------------------------------------------------------------------

class TestStreamingEquivalence:
    @given(
        times=st.lists(
            st.floats(min_value=-50.0, max_value=150.0, allow_nan=False),
            max_size=150,
        )
    )
    @settings(max_examples=80)
    def test_bin_counter_equals_reference_binning(self, times):
        start, end, width = 0.0, 100.0, 7.0
        # The list-based loop bin_count() used before the rewrite.
        n = int(math.ceil((end - start) / width))
        reference = [0.0] * n
        for t in times:
            if start <= t < end:
                reference[int((t - start) / width)] += 1.0
        streamed = bin_count(iter(times), start=start, end=end, bin_width=width)
        assert list(streamed.values) == reference
        assert (streamed.start, streamed.bin_width) == (start, width)
