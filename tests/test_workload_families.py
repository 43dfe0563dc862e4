"""Property-based tests for the failure/recovery schedule generator.

The invariant the ``failure_churn`` family leans on: generated
failure/recovery schedules never overlap their down intervals and stay
inside the horizon.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.failures import (
    DownInterval,
    FailureInjector,
    FailureSchedule,
    generate_failure_schedule,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestFailureScheduleProperties:
    @given(
        seeds,
        st.floats(min_value=100.0, max_value=1e6),
        st.floats(min_value=1.0, max_value=1e5),
        st.floats(min_value=1.0, max_value=1e5),
    )
    @settings(max_examples=100, deadline=None)
    def test_down_intervals_never_overlap(
        self, seed, horizon, mean_up, mean_down
    ):
        """The defining property: downtime intervals are disjoint,
        ordered, and inside the horizon."""
        schedule = generate_failure_schedule(
            random.Random(seed),
            horizon=horizon,
            mean_uptime=mean_up,
            mean_downtime=mean_down,
        )
        previous_end = 0.0
        for interval in schedule.intervals:
            assert interval.start >= previous_end
            assert interval.end > interval.start
            assert interval.end <= horizon
            previous_end = interval.end
        assert schedule.total_downtime <= horizon

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FailureSchedule(
                (DownInterval(0.0, 10.0), DownInterval(5.0, 15.0))
            )

    def test_unordered_intervals_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FailureSchedule(
                (DownInterval(20.0, 30.0), DownInterval(0.0, 10.0))
            )

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            DownInterval(5.0, 5.0)

    def test_is_down_and_fraction(self):
        schedule = FailureSchedule(
            (DownInterval(10.0, 20.0), DownInterval(50.0, 60.0))
        )
        assert schedule.failure_count == 2
        assert schedule.downtime_fraction(100.0) == pytest.approx(0.2)

    def test_injector_triggers_recoveries(self):
        from repro.consistency.base import FixedTTRPolicy
        from repro.core.types import ObjectId
        from repro.httpsim.network import Network
        from repro.proxy.proxy import ProxyCache
        from repro.server.origin import OriginServer
        from repro.server.updates import UpdateFeeder
        from repro.sim.kernel import Kernel
        from repro.traces.model import trace_from_times

        trace = trace_from_times(ObjectId("x"), [5.0], end_time=1000.0)
        kernel = Kernel()
        server = OriginServer()
        proxy = ProxyCache(kernel, Network(kernel))
        UpdateFeeder(kernel, server, trace)
        proxy.register_object(ObjectId("x"), server, FixedTTRPolicy(ttr=50.0))
        schedule = FailureSchedule(
            (DownInterval(100.0, 150.0), DownInterval(400.0, 420.0))
        )
        injector = FailureInjector(kernel, proxy, schedule)
        kernel.run(until=1000.0)
        assert injector.recoveries == 2
        assert proxy.counters.get("recoveries") == 2
