"""Unit tests for timers built on the kernel."""

from __future__ import annotations

import pytest

from repro.sim.kernel import Kernel
from repro.sim.timers import PeriodicTimer, RestartableTimer


class TestRestartableTimer:
    def test_fires_once_at_armed_time(self, kernel):
        fired = []
        timer = RestartableTimer(kernel, fired.append)
        timer.arm_at(5.0)
        kernel.run()
        assert fired == [5.0]
        assert not timer.armed

    def test_arm_after_is_relative_to_now(self, kernel):
        fired = []
        timer = RestartableTimer(kernel, fired.append)
        kernel.schedule_at(3.0, lambda k: timer.arm_after(4.0))
        kernel.run()
        assert fired == [7.0]

    def test_rearm_replaces_pending_firing(self, kernel):
        fired = []
        timer = RestartableTimer(kernel, fired.append)
        timer.arm_at(5.0)
        timer.arm_at(9.0)
        kernel.run()
        assert fired == [9.0]

    def test_rearm_from_callback(self, kernel):
        fired = []

        def callback(now):
            fired.append(now)
            if now < 3.0:
                timer.arm_after(1.0)

        timer = RestartableTimer(kernel, callback)
        timer.arm_at(1.0)
        kernel.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_disarm_prevents_firing(self, kernel):
        fired = []
        timer = RestartableTimer(kernel, fired.append)
        timer.arm_at(5.0)
        timer.disarm()
        kernel.run()
        assert fired == []

    def test_disarm_when_unarmed_is_safe(self, kernel):
        timer = RestartableTimer(kernel, lambda now: None)
        timer.disarm()  # no exception

    def test_next_fire_time(self, kernel):
        timer = RestartableTimer(kernel, lambda now: None)
        assert timer.next_fire_time is None
        timer.arm_at(7.5)
        assert timer.next_fire_time == 7.5


class TestPeriodicTimer:
    def test_fires_every_period(self, kernel):
        fired = []
        PeriodicTimer(kernel, 2.0, fired.append)
        kernel.run(until=7.0)
        assert fired == [2.0, 4.0, 6.0]

    def test_fire_immediately_includes_time_zero(self, kernel):
        fired = []
        PeriodicTimer(kernel, 2.0, fired.append, fire_immediately=True)
        kernel.run(until=5.0)
        assert fired == [0.0, 2.0, 4.0]

    def test_stop_halts_firings(self, kernel):
        fired = []
        timer = PeriodicTimer(kernel, 1.0, fired.append)
        kernel.schedule_at(2.5, lambda k: timer.stop())
        kernel.run(until=10.0)
        assert fired == [1.0, 2.0]
        assert not timer.running

    def test_stop_after_bounds_firings(self, kernel):
        fired = []
        PeriodicTimer(kernel, 1.0, fired.append, stop_after=3.0)
        kernel.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_fire_count(self, kernel):
        timer = PeriodicTimer(kernel, 1.0, lambda now: None)
        kernel.run(until=4.5)
        assert timer.fire_count == 4

    def test_stop_from_callback(self, kernel):
        fired = []

        def callback(now):
            fired.append(now)
            if len(fired) == 2:
                timer.stop()

        timer = PeriodicTimer(kernel, 1.0, callback)
        kernel.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_non_positive_period_rejected(self, kernel):
        with pytest.raises(ValueError):
            PeriodicTimer(kernel, 0.0, lambda now: None)

    def test_baseline_poll_count_matches_paper_formula(self):
        """A Δ-periodic poller over duration D fires floor(D/Δ) times."""
        kernel = Kernel()
        fired = []
        PeriodicTimer(kernel, 60.0, fired.append)
        kernel.run(until=3600.0)
        assert len(fired) == 60
