"""Unit tests for the event log."""

from __future__ import annotations

import pytest

from repro.core.events import (
    GenericEvent,
    PollEvent,
    PollReason,
    UpdateAppliedEvent,
)
from repro.core.types import ObjectId
from repro.sim.tracing import EventLog


class TestEventLog:
    def _poll(self, t, oid="x"):
        return PollEvent(
            time=t,
            object_id=ObjectId(oid),
            reason=PollReason.TTR_EXPIRED,
            modified=False,
        )

    def test_record_and_iterate(self):
        log = EventLog()
        log.record(self._poll(1.0))
        log.record(self._poll(2.0))
        assert len(log) == 2
        assert [e.time for e in log] == [1.0, 2.0]

    def test_out_of_order_record_rejected(self):
        log = EventLog()
        log.record(self._poll(5.0))
        with pytest.raises(ValueError):
            log.record(self._poll(4.0))

    def test_equal_time_records_allowed(self):
        log = EventLog()
        log.record(self._poll(5.0))
        log.record(self._poll(5.0))
        assert len(log) == 2

    def test_disabled_log_drops_events(self):
        log = EventLog(enabled=False)
        log.record(self._poll(1.0))
        assert len(log) == 0

    def test_of_type_filters(self):
        log = EventLog()
        log.record(self._poll(1.0))
        log.record(UpdateAppliedEvent(time=2.0, object_id=ObjectId("x"), version=1))
        polls = log.of_type(PollEvent)
        assert len(polls) == 1
        assert isinstance(polls[0], PollEvent)

    def test_for_object_filters(self):
        log = EventLog()
        log.record(self._poll(1.0, "a"))
        log.record(self._poll(2.0, "b"))
        assert [e.time for e in log.for_object(ObjectId("b"))] == [2.0]

    def test_between_is_half_open(self):
        log = EventLog()
        for t in (1.0, 2.0, 3.0):
            log.record(self._poll(t))
        assert [e.time for e in log.between(1.0, 3.0)] == [1.0, 2.0]

    def test_last_overall_and_by_type(self):
        log = EventLog()
        assert log.last() is None
        log.record(self._poll(1.0))
        log.record(GenericEvent(time=2.0, name="note"))
        assert log.last().time == 2.0
        assert log.last(PollEvent).time == 1.0

    def test_where_predicate(self):
        log = EventLog()
        log.record(self._poll(1.0))
        log.record(self._poll(2.0))
        found = log.where(lambda e: e.time > 1.5)
        assert [e.time for e in found] == [2.0]

    def test_clear(self):
        log = EventLog()
        log.record(self._poll(1.0))
        log.clear()
        assert len(log) == 0
