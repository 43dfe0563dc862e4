"""Unit tests for the client load generator (:mod:`repro.workload.clients`).

:class:`ClientPump` draws Poisson arrivals and Zipf object choices; the
classes below test those two halves and the request stream they drive
(one pending kernel event, nothing past the horizon, a warm cache
answers every request from cache).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import partial
from itertools import accumulate

import pytest

from repro.api.builder import SimulationBuilder, run_simulation
from repro.api.config import LevelConfig
from repro.core.types import ObjectId
from repro.sim.kernel import Kernel
from repro.workload.clients import ZIPF_EXPONENT, ClientPump, attach_client_pumps


class _Recorder:
    """Stands in for the proxy: records (time, object) per request."""

    def __init__(self, kernel):
        self._kernel = kernel
        self.requests = []

    def handle_client_request(self, object_id):
        self.requests.append((self._kernel.now(), object_id))


def _objects(n):
    return [ObjectId(f"o{i}") for i in range(n)]


def _pump(*, objects=None, rate_per_s=1.0, horizon=1000.0, seed=1):
    kernel = Kernel()
    recorder = _Recorder(kernel)
    pump = ClientPump(
        kernel,
        recorder,
        _objects(4) if objects is None else objects,
        random.Random(seed),
        rate_per_s=rate_per_s,
        horizon=horizon,
    )
    return kernel, recorder, pump


def _counts(requests, objects):
    counts = {o: 0 for o in objects}
    for _, object_id in requests:
        counts[object_id] += 1
    return counts


class TestArrivals:
    def test_poisson_mean_rate(self):
        kernel, recorder, pump = _pump(rate_per_s=2.0, horizon=2500.0)
        pump.start()
        kernel.run(until=5000.0)
        assert pump.served == len(recorder.requests)
        assert pump.served / 2500.0 == pytest.approx(2.0, rel=0.1)

    def test_poisson_invalid_rate(self):
        with pytest.raises(ValueError):
            _pump(rate_per_s=0.0)


class TestPopularity:
    def test_zipf_rank_ordering(self):
        objects = _objects(10)
        kernel, recorder, pump = _pump(objects=objects, rate_per_s=20.0)
        pump.start()
        kernel.run(until=1000.0)
        counts = _counts(recorder.requests, objects)
        assert counts[objects[0]] > counts[objects[4]] > counts[objects[9]]

    def test_zipf_head_follows_the_exponent(self):
        """Rank i (1-based) is asked for with probability i^-s / H."""
        objects = _objects(20)
        kernel, recorder, pump = _pump(objects=objects, rate_per_s=30.0)
        pump.start()
        kernel.run(until=1000.0)
        draws = len(recorder.requests)
        counts = _counts(recorder.requests, objects)
        weights = [rank ** -ZIPF_EXPONENT for rank in range(1, 21)]
        for rank, obj in enumerate(objects[:5]):
            expected = weights[rank] / sum(weights)
            assert counts[obj] / draws == pytest.approx(expected, abs=0.02)

    def test_empty_objects_rejected(self):
        with pytest.raises(ValueError):
            _pump(objects=[])


class TestRequestStream:
    def test_adding_a_pump_adds_one_pending_event(self):
        kernel, recorder, pump = _pump(rate_per_s=5.0, horizon=100.0)
        for when in (10.0, 20.0, 30.0):
            kernel.schedule_at(when, lambda _k: None)
        pump.start()
        assert kernel.pending_count == 4
        while kernel.step():
            assert kernel.now() <= 100.0
            background = sum(1 for when in (10.0, 20.0, 30.0) if when > kernel.now())
            assert kernel.pending_count <= background + 1
        assert pump.served > 400

    def test_stream_issues_requests_until_end(self):
        kernel, recorder, pump = _pump(rate_per_s=5.0, horizon=55.0)
        pump.start()
        kernel.run(until=200.0)
        times = [when for when, _ in recorder.requests]
        assert times == sorted(times)
        assert 0.0 < times[-1] <= 55.0
        assert pump.served == len(times)
        assert kernel.pending_count == 0

    def test_draws_first_gap_then_object_and_next_gap(self):
        """The pinned draw order: sharded and serial runs rely on it."""
        objects = _objects(4)
        kernel, recorder, pump = _pump(
            objects=objects, rate_per_s=2.0, horizon=50.0, seed=4
        )
        pump.start()
        kernel.run(until=100.0)
        rng = random.Random(4)
        cumulative = list(
            accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(4))
        )
        expected, now = [], rng.expovariate(2.0)
        while now <= 50.0:
            choice = bisect_left(cumulative, rng.random() * cumulative[-1])
            expected.append((now, objects[choice]))
            now += rng.expovariate(2.0)
        assert recorder.requests == expected

    def test_all_requests_hit_warm_cache(self):
        config = (
            SimulationBuilder()
            .workload("poisson", "x", "y", rate_per_hour=4.0, hours=1.0)
            .policy("static_ttl", ttl=600.0)
            .topology("tree", levels=[LevelConfig(fan_out=1)])
            .seed(3)
            .horizon(3600.0)
            .build()
        )
        outcome = run_simulation(
            config,
            instrument=partial(
                attach_client_pumps, clients=500, horizon=3600.0, seed=3
            ),
        )
        counters = outcome.run.proxy.counters
        assert counters.get("client_hits") > 400
        assert counters.get("client_misses") == 0
