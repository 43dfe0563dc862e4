"""Unit tests for the mutual value-consistency coordinators (§4.2)."""

from __future__ import annotations

import pytest

from repro.consistency.mutual_value import (
    AdaptiveFCoordinator,
    AdaptiveFParameters,
    PartitionParameters,
    PartitionedMvCoordinator,
    difference,
    group_f_history,
)
from repro.core.errors import PolicyConfigurationError
from repro.core.types import ObjectId, TTRBounds
from repro.httpsim.network import Network
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.server.updates import UpdateFeeder
from repro.sim.kernel import Kernel
from repro.traces.model import trace_from_ticks

A = ObjectId("a")
B = ObjectId("b")
BOUNDS = TTRBounds(ttr_min=1.0, ttr_max=50.0)


def build_value_pair(ticks_a, ticks_b, *, horizon=300.0):
    kernel = Kernel()
    server = OriginServer()
    proxy = ProxyCache(kernel, Network(kernel))
    UpdateFeeder(
        kernel, server, trace_from_ticks(A, ticks_a, end_time=horizon)
    )
    UpdateFeeder(
        kernel, server, trace_from_ticks(B, ticks_b, end_time=horizon)
    )
    return kernel, server, proxy


def ramp(start, step, count, dt=10.0, t0=5.0):
    return [(t0 + dt * i, start + step * i) for i in range(count)]


class TestAdaptiveF:
    def test_joint_polls_hit_both_objects(self):
        kernel, server, proxy = build_value_pair(
            ramp(10.0, 0.5, 20), ramp(50.0, -0.5, 20)
        )
        coordinator = AdaptiveFCoordinator(
            proxy, (A, B), delta=1.0, bounds=BOUNDS
        )
        coordinator.setup(server, server)
        kernel.run(until=200.0)
        polls_a = proxy.entry_for(A).poll_count
        polls_b = proxy.entry_for(B).poll_count
        assert polls_a == polls_b
        assert polls_a > 2
        assert coordinator.counters.get("joint_polls") > 0

    def test_f_history_tracks_difference(self):
        kernel, server, proxy = build_value_pair(
            ramp(10.0, 1.0, 20), ramp(5.0, 0.0, 20)
        )
        coordinator = AdaptiveFCoordinator(
            proxy, (A, B), delta=2.0, bounds=BOUNDS
        )
        coordinator.setup(server, server)
        kernel.run(until=200.0)
        history = coordinator.f_history
        assert history[0][1] == pytest.approx(10.0 - 5.0)
        assert history[-1][1] > history[0][1]  # difference grows

    def test_gamma_decreases_on_violation(self):
        # Values jump so fast that every poll interval sees >= delta
        # change in f → gamma must fall below 1.
        kernel, server, proxy = build_value_pair(
            ramp(0.0, 5.0, 30, dt=5.0), ramp(0.0, 0.0, 30, dt=5.0)
        )
        coordinator = AdaptiveFCoordinator(
            proxy, (A, B), delta=1.0, bounds=BOUNDS,
            parameters=AdaptiveFParameters(gamma_increase=0.0),
        )
        coordinator.setup(server, server)
        kernel.run(until=150.0)
        assert coordinator.gamma < 1.0
        assert coordinator.counters.get("observed_violations") > 0

    def test_gamma_recovers_without_violations(self):
        kernel, server, proxy = build_value_pair(
            ramp(0.0, 5.0, 8, dt=5.0), [(5.0, 0.0)]
        )
        coordinator = AdaptiveFCoordinator(
            proxy, (A, B), delta=1.0,
            bounds=TTRBounds(ttr_min=1.0, ttr_max=10.0),
            parameters=AdaptiveFParameters(gamma_decrease=0.5, gamma_increase=0.1),
        )
        coordinator.setup(server, server)
        kernel.run(until=45.0)   # fast phase: violations shrink gamma
        mid = coordinator.gamma
        assert mid < 1.0
        kernel.run(until=290.0)  # quiet phase: gamma recovers
        assert coordinator.gamma > mid

    def test_fast_f_means_frequent_polls(self):
        slow_stack = build_value_pair(ramp(0.0, 0.01, 30), ramp(0.0, 0.0, 30))
        fast_stack = build_value_pair(ramp(0.0, 5.0, 30), ramp(0.0, 0.0, 30))
        results = []
        for kernel, server, proxy in (slow_stack, fast_stack):
            coordinator = AdaptiveFCoordinator(
                proxy, (A, B), delta=1.0, bounds=BOUNDS
            )
            coordinator.setup(server, server)
            kernel.run(until=290.0)
            results.append(proxy.counters.get("polls"))
        slow_polls, fast_polls = results
        assert fast_polls > slow_polls

    def test_identical_pair_members_rejected(self):
        kernel = Kernel()
        proxy = ProxyCache(kernel, Network(kernel))
        with pytest.raises(PolicyConfigurationError):
            AdaptiveFCoordinator(proxy, (A, A), delta=1.0, bounds=BOUNDS)

    def test_stop_halts_polling(self):
        kernel, server, proxy = build_value_pair(
            ramp(0.0, 1.0, 20), ramp(0.0, 0.0, 20)
        )
        coordinator = AdaptiveFCoordinator(proxy, (A, B), delta=1.0, bounds=BOUNDS)
        coordinator.setup(server, server)
        kernel.run(until=20.0)
        polls = proxy.counters.get("polls")
        coordinator.stop()
        kernel.run(until=200.0)
        assert proxy.counters.get("polls") == polls


class TestAdaptiveFParameters:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(Exception):
            AdaptiveFParameters(gamma_decrease=1.0)
        with pytest.raises(Exception):
            AdaptiveFParameters(gamma_min=0.0)
        with pytest.raises(PolicyConfigurationError):
            AdaptiveFParameters(gamma_increase=-0.1)
        with pytest.raises(PolicyConfigurationError):
            AdaptiveFParameters(smoothing_weight=0.0)


class TestPartitioned:
    def test_setup_registers_both_with_half_delta(self):
        kernel, server, proxy = build_value_pair(
            ramp(0.0, 1.0, 20), ramp(0.0, 1.0, 20)
        )
        coordinator = PartitionedMvCoordinator(
            proxy, (A, B), delta=2.0, bounds=BOUNDS,
            parameters=PartitionParameters(reapportion_interval=None),
        )
        coordinator.setup({A: server, B: server})
        assert coordinator.current_tolerances() == {A: 1.0, B: 1.0}
        kernel.run(until=100.0)
        assert proxy.entry_for(A).poll_count > 1
        assert proxy.entry_for(B).poll_count > 1

    def test_reapportion_gives_faster_object_smaller_tolerance(self):
        # a changes 10x faster than b.
        kernel, server, proxy = build_value_pair(
            ramp(0.0, 10.0, 25), ramp(0.0, 1.0, 25)
        )
        coordinator = PartitionedMvCoordinator(
            proxy, (A, B), delta=2.0, bounds=BOUNDS,
            parameters=PartitionParameters(reapportion_interval=20.0),
        )
        coordinator.setup({A: server, B: server})
        kernel.run(until=250.0)
        delta_a, delta_b = coordinator.current_tolerances().values()
        assert delta_a < delta_b
        assert delta_a + delta_b == pytest.approx(2.0)
        assert coordinator.counters.get("reapportionments") > 0

    def test_static_split_never_reapportions(self):
        kernel, server, proxy = build_value_pair(
            ramp(0.0, 10.0, 20), ramp(0.0, 1.0, 20)
        )
        coordinator = PartitionedMvCoordinator(
            proxy, (A, B), delta=2.0, bounds=BOUNDS,
            parameters=PartitionParameters(reapportion_interval=None),
        )
        coordinator.setup({A: server, B: server})
        kernel.run(until=250.0)
        assert coordinator.counters.get("reapportionments") == 0
        assert coordinator.current_tolerances() == {A: 1.0, B: 1.0}

    def test_min_fraction_floor_respected(self):
        kernel, server, proxy = build_value_pair(
            ramp(0.0, 100.0, 25), ramp(0.0, 0.001, 25)
        )
        params = PartitionParameters(
            reapportion_interval=20.0, min_fraction=0.1
        )
        coordinator = PartitionedMvCoordinator(
            proxy, (A, B), delta=2.0, bounds=BOUNDS, parameters=params
        )
        coordinator.setup({A: server, B: server})
        kernel.run(until=250.0)
        delta_a, delta_b = coordinator.current_tolerances().values()
        assert delta_a >= 0.2 - 1e-9  # 0.1 * 2.0
        assert delta_b >= 0.2 - 1e-9

    def test_invalid_parameters_rejected(self):
        with pytest.raises(PolicyConfigurationError):
            PartitionParameters(reapportion_interval=0.0)
        with pytest.raises(PolicyConfigurationError):
            PartitionParameters(min_fraction=0.0)
        with pytest.raises(PolicyConfigurationError):
            PartitionParameters(min_fraction=0.6)


class TestPairedFHistory:
    def test_reconstructs_difference_steps(self):
        kernel, server, proxy = build_value_pair(
            ramp(10.0, 1.0, 10), ramp(0.0, 0.0, 10)
        )
        coordinator = PartitionedMvCoordinator(
            proxy, (A, B), delta=1.0, bounds=BOUNDS
        )
        coordinator.setup({A: server, B: server})
        kernel.run(until=150.0)
        knots = group_f_history(proxy, (A, B), lambda v: difference(*v))
        assert knots, "expected at least one knot"
        times = [t for t, _ in knots]
        assert times == sorted(times)
        # The first knot reflects the initial fetched values.
        assert knots[0][1] == pytest.approx(10.0 - 0.0)


class TestDifference:
    def test_difference_function(self):
        assert difference(5.0, 3.0) == 2.0
        assert difference(3.0, 5.0) == -2.0


class TestAdaptiveFCustomFunctions:
    """The coordinator works for any (locally near-linear) f, not just
    the difference — Section 4.2 makes no assumption about f's form."""

    def test_ratio_function_drives_polling(self):
        kernel, server, proxy = build_value_pair(
            ramp(10.0, 0.5, 20), ramp(50.0, -0.5, 20)
        )
        coordinator = AdaptiveFCoordinator(
            proxy,
            (A, B),
            delta=0.02,
            bounds=BOUNDS,
            f=lambda a, b: a / b,
        )
        coordinator.setup(server, server)
        kernel.run(until=200.0)
        assert coordinator.counters.get("joint_polls") > 2
        times, values = zip(*coordinator.f_history)
        # f history must hold the ratio of the cached values, not the
        # difference.
        assert all(v > 0 for v in values)
        assert max(values) < 2.0

    def test_weighted_sum_function(self):
        kernel, server, proxy = build_value_pair(
            ramp(10.0, 1.0, 20), ramp(50.0, 1.0, 20)
        )
        coordinator = AdaptiveFCoordinator(
            proxy,
            (A, B),
            delta=2.0,
            bounds=BOUNDS,
            f=lambda a, b: 0.7 * a + 0.3 * b,
        )
        coordinator.setup(server, server)
        kernel.run(until=200.0)
        _times, values = zip(*coordinator.f_history)
        # The weighted sum of two rising series must be rising.
        assert values[-1] > values[0]

    def test_faster_moving_f_polls_more(self):
        """A steeper f (same data) must produce more joint polls."""

        def run_with(scale):
            kernel, server, proxy = build_value_pair(
                ramp(10.0, 1.0, 25), ramp(10.0, -1.0, 25)
            )
            coordinator = AdaptiveFCoordinator(
                proxy,
                (A, B),
                delta=5.0,
                bounds=BOUNDS,
                f=lambda a, b: scale * (a - b),
            )
            coordinator.setup(server, server)
            kernel.run(until=260.0)
            return coordinator.counters.get("joint_polls")

        assert run_with(4.0) > run_with(0.25)
