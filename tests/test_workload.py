"""Unit tests for workload generation: arrivals, popularity, streams."""

from __future__ import annotations

import itertools

import pytest

from repro.consistency.base import FixedTTRPolicy
from repro.core.types import ObjectId
from repro.httpsim.network import Network
from repro.proxy.client import Client
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.sim.kernel import Kernel
from repro.workload.arrivals import PoissonArrivals
from repro.workload.popularity import ZipfPopularity
from repro.workload.requests import RequestStream, RequestStreamConfig


class _Every:
    """A fixed gap between arrivals, so a stream's count is exact."""

    def __init__(self, gap):
        self._gap = gap

    def next_gap(self):
        return self._gap


class _RoundRobin:
    def __init__(self, objects):
        self._objects = itertools.cycle(objects)

    def choose(self):
        return next(self._objects)


class TestArrivals:
    def test_poisson_mean_rate(self, rng):
        arrivals = PoissonArrivals(rate_per_second=2.0, rng=rng)
        gaps = [arrivals.next_gap() for _ in range(5000)]
        assert sum(gaps) / len(gaps) == pytest.approx(0.5, rel=0.1)

    def test_poisson_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            PoissonArrivals(rate_per_second=0.0, rng=rng)


class TestPopularity:
    def _objects(self, n):
        return [ObjectId(f"o{i}") for i in range(n)]

    def test_zipf_rank_ordering(self, rng):
        objects = self._objects(10)
        model = ZipfPopularity(objects, exponent=1.0, rng=rng)
        counts = {o: 0 for o in objects}
        for _ in range(20000):
            counts[model.choose()] += 1
        assert counts[objects[0]] > counts[objects[4]] > counts[objects[9]]

    def test_zipf_zero_exponent_is_uniform(self, rng):
        objects = self._objects(4)
        model = ZipfPopularity(objects, exponent=0.0, rng=rng)
        counts = {o: 0 for o in objects}
        for _ in range(8000):
            counts[model.choose()] += 1
        for obj in objects:
            assert counts[obj] / 8000 == pytest.approx(0.25, abs=0.03)

    def test_empty_objects_rejected(self, rng):
        with pytest.raises(ValueError):
            ZipfPopularity([], 1.0, rng)


class TestRequestStream:
    def _stack(self):
        kernel = Kernel()
        server = OriginServer()
        proxy = ProxyCache(kernel, Network(kernel))
        for name in ("x", "y"):
            server.create_object(ObjectId(name), created_at=0.0)
            proxy.register_object(
                ObjectId(name), server, FixedTTRPolicy(ttr=1000.0)
            )
        client = Client(kernel, proxy)
        return kernel, client

    def test_stream_issues_requests_until_end(self):
        kernel, client = self._stack()
        stream = RequestStream(
            kernel,
            client,
            _Every(10.0),
            _RoundRobin([ObjectId("x"), ObjectId("y")]),
            RequestStreamConfig(start=0.0, end=55.0),
        )
        # The refresher timers re-arm forever; bound the horizon.
        kernel.run(until=60.0)
        assert stream.issued_count == 5
        assert client.counters.get("requests") == 5

    def test_all_requests_hit_warm_cache(self):
        kernel, client = self._stack()
        RequestStream(
            kernel,
            client,
            _Every(5.0),
            _RoundRobin([ObjectId("x"), ObjectId("y")]),
            RequestStreamConfig(start=0.0, end=100.0),
        )
        kernel.run(until=100.0)
        assert client.hit_ratio == 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RequestStreamConfig(start=10.0, end=10.0)
