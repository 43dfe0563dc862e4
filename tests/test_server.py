"""Unit tests for the origin server substrate."""

from __future__ import annotations

import bisect
import math
import os
import sys
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.consistency.base import FixedTTRPolicy
from repro.core.errors import SchedulingInPastError, UnknownObjectError
from repro.core.types import ObjectId, ObjectSnapshot
from repro.httpsim.messages import Status, conditional_get
from repro.httpsim.network import Network
from repro.proxy.proxy import ProxyCache
from repro.server.objects import ServerObject
from repro.server.origin import OriginServer
from repro.server.updates import UpdateFeeder, feed_traces
from repro.sim.kernel import Kernel
from repro.traces.model import trace_from_ticks, trace_from_times


X = ObjectId("x")


def _origin(*, created_at=0.0, initial_value=None):
    """An origin holding one object ``x``; updates go through the server,
    the object's one writer."""
    server = OriginServer()
    obj = server.create_object(X, created_at=created_at, initial_value=initial_value)
    return server, obj


class TestServerObject:
    def test_creation_is_version_zero(self):
        obj = ServerObject(X, created_at=5.0)
        assert obj.current_version == 0
        assert obj.last_modified == 5.0
        assert (obj.times, obj.values) == ([5.0], [None])

    def test_updates_increment_version(self):
        server, obj = _origin()
        server.apply_update(X, 1.0)
        server.apply_update(X, 2.0)
        assert obj.current_version == 2
        assert obj.last_modified == 2.0

    def test_update_not_after_last_rejected(self):
        server, obj = _origin(created_at=5.0)
        for time in (5.0, 4.0, math.nan):
            with pytest.raises(ValueError):
                server.apply_update(X, time)
        assert (obj.times, obj.values) == ([5.0], [None])
        assert server.counters.get("updates_applied") == 0

    def test_value_updates(self):
        server, obj = _origin(initial_value=10.0)
        server.apply_update(X, 1.0, value=11.0)
        assert obj.current_value == 11.0
        assert obj.state_at(0.5).value == 10.0

    def test_snapshot_reflects_current_state(self):
        server, obj = _origin()
        server.apply_update(X, 3.0, value=7.0)
        assert obj.state_at(4.0) == ObjectSnapshot(X, 1, 3.0, 7.0)

    def test_version_is_the_index_into_times_and_values(self):
        server, obj = _origin(initial_value=1.0)
        for time, value in ((2.0, 2.0), (4.0, 3.0), (8.0, 4.0)):
            server.apply_update(X, time, value)
        assert obj.times == [0.0, 2.0, 4.0, 8.0]
        assert obj.values == [1.0, 2.0, 3.0, 4.0]
        for version, time in enumerate(obj.times):
            assert obj.state_at(time) == ObjectSnapshot(
                X, version, time, obj.values[version]
            )

    def test_state_at_historical_instants(self):
        server, obj = _origin()
        server.apply_update(X, 10.0)
        server.apply_update(X, 20.0)
        assert obj.state_at(5.0).version == 0
        assert obj.state_at(10.0).version == 1
        assert obj.state_at(15.0).version == 1
        assert obj.state_at(25.0).version == 2

    def test_state_at_before_creation_is_none(self):
        obj = ServerObject(X, created_at=5.0)
        assert obj.state_at(4.0) is None

    def test_modification_times_includes_creation(self):
        server, obj = _origin(created_at=1.0)
        server.apply_update(X, 2.0)
        assert obj.times == [1.0, 2.0]


class TestOriginServer:
    def test_create_and_get(self):
        server = OriginServer()
        server.create_object(ObjectId("x"))
        assert server.has_object(ObjectId("x"))
        assert server.get_object(ObjectId("x")).current_version == 0

    def test_duplicate_creation_rejected(self):
        server = OriginServer()
        server.create_object(ObjectId("x"))
        with pytest.raises(ValueError):
            server.create_object(ObjectId("x"))

    def test_unknown_object_raises(self):
        server = OriginServer()
        with pytest.raises(UnknownObjectError):
            server.get_object(ObjectId("nope"))

    def test_request_for_unknown_object_is_404(self):
        server = OriginServer()
        response = server.handle_request(
            conditional_get(ObjectId("nope")), now=1.0
        )
        assert response.status is Status.NOT_FOUND

    def test_conditional_get_flow(self):
        server = OriginServer()
        server.create_object(ObjectId("x"), created_at=0.0)
        first = server.handle_request(conditional_get(ObjectId("x")), now=1.0)
        assert first.status is Status.OK
        assert first.version == 0

        unchanged = server.handle_request(
            conditional_get(ObjectId("x"), if_modified_since=first.last_modified),
            now=2.0,
        )
        assert unchanged.status is Status.NOT_MODIFIED

        server.apply_update(ObjectId("x"), 3.0)
        changed = server.handle_request(
            conditional_get(ObjectId("x"), if_modified_since=first.last_modified),
            now=4.0,
        )
        assert changed.status is Status.OK
        assert changed.version == 1

    def test_history_supported(self):
        server = OriginServer(supports_history=True)
        server.create_object(ObjectId("x"), created_at=0.0)
        for t in (1.0, 2.0, 3.0):
            server.apply_update(ObjectId("x"), t)
        response = server.handle_request(
            conditional_get(
                ObjectId("x"), if_modified_since=1.0, want_history=True
            ),
            now=4.0,
        )
        assert response.modification_history == [2.0, 3.0]

    def test_history_unsupported_server_omits_header(self):
        server = OriginServer(supports_history=False)
        server.create_object(ObjectId("x"), created_at=0.0)
        server.apply_update(ObjectId("x"), 2.0)
        response = server.handle_request(
            conditional_get(
                ObjectId("x"), if_modified_since=1.0, want_history=True
            ),
            now=3.0,
        )
        assert response.status is Status.OK
        assert response.modification_history is None

    def test_counters(self):
        server = OriginServer()
        server.create_object(ObjectId("x"))
        server.handle_request(conditional_get(ObjectId("x")), now=1.0)
        server.handle_request(conditional_get(ObjectId("nope")), now=2.0)
        assert server.counters.get("requests") == 2
        assert server.counters.get("responses_200") == 1
        assert server.counters.get("responses_404") == 1


class TestUpdateFeeder:
    def test_feeds_all_updates_at_right_times(self):
        kernel = Kernel()
        server = OriginServer()
        trace = trace_from_times(ObjectId("x"), [10.0, 20.0, 30.0])
        feeder = UpdateFeeder(kernel, server, trace)
        assert feeder.scheduled_count == 3

        kernel.run(until=15.0)
        assert server.get_object(ObjectId("x")).current_version == 1
        kernel.run(until=35.0)
        assert server.get_object(ObjectId("x")).current_version == 3
        assert feeder.applied_count == 3

    def test_valued_trace_sets_initial_value(self):
        kernel = Kernel()
        server = OriginServer()
        trace = trace_from_ticks(ObjectId("s"), [(5.0, 1.5), (10.0, 2.5)])
        UpdateFeeder(kernel, server, trace)
        # Before the first tick fires, the object's value is the first
        # record's value so an initial proxy fetch sees a real price.
        assert server.get_object(ObjectId("s")).current_value == 1.5
        kernel.run()
        assert server.get_object(ObjectId("s")).current_value == 2.5

    def test_feed_traces_creates_all_objects(self):
        kernel = Kernel()
        server = OriginServer()
        traces = [
            trace_from_times(ObjectId("a"), [1.0]),
            trace_from_times(ObjectId("b"), [2.0]),
        ]
        feeders = feed_traces(kernel, server, traces)
        assert set(feeders) == {ObjectId("a"), ObjectId("b")}
        assert server.has_object(ObjectId("a"))
        assert server.has_object(ObjectId("b"))

    def test_existing_object_not_recreated(self):
        kernel = Kernel()
        server = OriginServer()
        server.create_object(ObjectId("x"), created_at=0.0)
        trace = trace_from_times(ObjectId("x"), [10.0])
        UpdateFeeder(kernel, server, trace)
        kernel.run()
        assert server.get_object(ObjectId("x")).current_version == 1


class TestUpdateFeederContract:
    """Black-box: what a feeder promises the kernel and the origin."""

    def test_pending_set_is_one_event_per_trace_not_per_record(self):
        kernel = Kernel()
        server = OriginServer()
        traces = [
            trace_from_times(ObjectId(name), [10.0 * i + offset for i in range(1, 6)])
            for offset, name in enumerate("abc")
        ]
        feeders = feed_traces(kernel, server, traces)
        assert kernel.pending_count == 3
        assert all(f.scheduled_count == 5 for f in feeders.values())
        assert all(f.applied_count == 0 for f in feeders.values())

        kernel.run(until=25.0)
        assert kernel.pending_count == 3
        assert all(f.scheduled_count == 5 for f in feeders.values())
        assert [f.applied_count for f in feeders.values()] == [2, 2, 2]

        kernel.run()
        # Every record is still its own dispatched event.
        assert kernel.events_processed == 15
        assert server.counters.get("updates_applied") == 15
        assert all(f.applied_count == 5 for f in feeders.values())
        assert kernel.pending_count == 0

    def test_record_at_the_window_start_is_the_creation_not_an_update(self):
        kernel = Kernel()
        server = OriginServer()
        trace = trace_from_ticks(ObjectId("s"), [(0.0, 1.0), (5.0, 2.0)])
        feeder = UpdateFeeder(kernel, server, trace)
        assert feeder.scheduled_count == 1
        kernel.run()
        obj = server.get_object(ObjectId("s"))
        assert (obj.current_version, obj.current_value) == (1, 2.0)

    def test_update_at_exactly_a_polls_instant_is_visible_to_that_poll(self):
        """Fed before the proxy registers, an update wins every tie with
        a poll — also one whose kernel entry is queued (at t=15) after
        the coincident poll was armed (at t=10)."""
        kernel = Kernel()
        server = OriginServer()
        x = ObjectId("x")
        UpdateFeeder(
            kernel, server, trace_from_times(x, [5.0, 15.0, 20.0], end_time=30.0)
        )
        proxy = ProxyCache(kernel, Network(kernel))
        proxy.register_object(x, server, FixedTTRPolicy(ttr=10.0))
        kernel.run(until=20.0)
        entry = proxy.entry_for(x)
        assert [
            (t, snapshot.version)
            for t, snapshot in zip(entry.fetch_times, entry.fetch_snapshots)
        ] == [
            (0.0, 0),
            (10.0, 1),
            (20.0, 3),
        ]

    def test_earlier_fed_trace_wins_coincident_updates(self):
        """Feed order decides a tie, not which trace's entry was queued
        first (the second trace's t=3 entry is queued at t=1, the
        first's at t=2)."""
        order = []

        class RecordingOrigin(OriginServer):
            def apply_update(self, object_id, time, value=None):
                order.append((time, str(object_id)))
                super().apply_update(object_id, time, value)

        kernel = Kernel()
        server = RecordingOrigin()
        feed_traces(
            kernel,
            server,
            [
                trace_from_times(ObjectId("first"), [2.0, 3.0]),
                trace_from_times(ObjectId("second"), [1.0, 3.0]),
            ],
        )
        kernel.run()
        assert order == [
            (1.0, "second"),
            (2.0, "first"),
            (3.0, "first"),
            (3.0, "second"),
        ]

    def test_trace_starting_before_now_is_rejected_at_construction(self):
        kernel = Kernel(start_time=50.0)
        trace = trace_from_times(ObjectId("x"), [10.0, 60.0])
        with pytest.raises(SchedulingInPastError):
            UpdateFeeder(kernel, OriginServer(), trace)
        assert kernel.pending_count == 0


class TestUpdateFrames:
    """The Python frames one trace update enters, pinned by qualified name.

    Counted with ``sys.setprofile``, as
    ``tests/test_proxy.py::TestPollFrames`` counts a poll; ``run`` and
    ``_drain`` are entered once per run.  Only frames whose code lives in
    the ``repro`` package count.  Applying an update appends to the
    origin object's two lists inside ``OriginServer.apply_update``: no
    lookup method, no object method, no record constructor.
    """

    UPDATES = 200
    FRAMES = {"_Series.fire", "UpdateFeeder._apply_next", "OriginServer.apply_update"}

    def test_an_update_enters_three_frames(self):
        kernel = Kernel()
        server = OriginServer()
        times = [float(t) for t in range(1, self.UPDATES + 1)]
        UpdateFeeder(kernel, server, trace_from_times(X, times))
        frames = Counter()
        package = os.path.dirname(repro.__file__) + os.sep

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                frames[frame.f_code.co_qualname] += 1

        sys.setprofile(profiler)
        try:
            kernel.run()
        finally:
            sys.setprofile(None)
        assert server.get_object(X).current_version == self.UPDATES
        assert frames.pop("Kernel.run") + frames.pop("Kernel._drain") == 2
        assert set(frames) == self.FRAMES
        assert sum(frames.values()) == 3 * self.UPDATES


class TestOriginFollowsItsTrace:
    """Black-box, through ``handle_request``: at any instant a fed origin
    answers its trace's latest update, whose index (plus the creation)
    is the version, and serves the trace's prefix as its history."""

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(st.floats(min_value=0.25, max_value=100.0), max_size=40),
        probes=st.lists(st.floats(min_value=0.0, max_value=5000.0), max_size=8),
        valued=st.booleans(),
    )
    def test_a_poll_at_any_instant_sees_the_latest_record(self, gaps, probes, valued):
        times = list(accumulate(gaps))
        if valued:
            trace = trace_from_ticks(X, [(t, 10.0 + i) for i, t in enumerate(times)])
        else:
            trace = trace_from_times(X, times)
        initial_value = trace.values[0] if times else None
        kernel = Kernel()
        server = OriginServer()
        UpdateFeeder(kernel, server, trace)
        for probe in sorted(probes):
            kernel.run(until=probe)
            response = server.handle_request(
                conditional_get(X, want_history=True), probe
            )
            version = bisect.bisect_right(times, probe)
            assert response.status is Status.OK
            assert response.version == version
            assert server.counters.get("updates_applied") == version
            if version == 0:
                assert (response.last_modified, response.value) == (0.0, initial_value)
            else:
                assert (response.last_modified, response.value) == (
                    times[version - 1],
                    trace.values[version - 1],
                )
            assert response.modification_history == [0.0, *times[:version]]
