"""Layer drivers: direct timed loops on one layer's public functions.

Untraced, each the minimum of five short runs, so they show what a
layer costs in isolation where the traced run shows its share of a
workload.  Every driver generates its inputs from the seed before its
clock starts.
"""

from __future__ import annotations

import random
import time
from functools import partial
from typing import Callable, Dict, List

from repro.api.builder import SimulationBuilder
from repro.api.results import ColumnarBuilder
from repro.core.types import ObjectId
from repro.httpsim.messages import Status, conditional_get
from repro.proxy.cache import ObjectCache
from repro.proxy.entry import CacheEntry
from repro.server.origin import OriginServer
from repro.sim.kernel import Kernel
from repro.sim.timers import PeriodicTimer, RestartableTimer

#: One run's (seconds, operations).
Timed = Callable[[], "tuple[float, int]"]


def _ignore(_now: float) -> None:
    pass


def _kernel_program(scheduler: str, seed: int) -> Timed:
    """The ``clients`` event mix on a bare kernel: 128 self-rescheduling
    exponential chains (the client pumps) among 1,096 periodic timers
    (137 nodes x 8 refreshers), all callbacks empty."""
    chains = 128
    per_chain = 400
    rng = random.Random(seed)
    delays = [
        [rng.expovariate(2.0) for _ in range(per_chain)] for _ in range(chains)
    ]
    periods = [rng.uniform(30.0, 90.0) for _ in range(1096)]

    def run() -> "tuple[float, int]":
        kernel = Kernel(scheduler=scheduler)

        def start_chain(remaining: List[float]) -> None:
            def step(k: Kernel) -> None:
                if remaining:
                    k.schedule_at(k.now() + remaining.pop(), step)

            step(kernel)

        for chain in delays:
            start_chain(list(chain))
        for period in periods:
            PeriodicTimer(kernel, period, _ignore)
        started = time.perf_counter()
        kernel.run(until=180.0)
        return time.perf_counter() - started, kernel.events_processed

    return run


def _timer_rearm(seed: int) -> Timed:
    """``tree_polls``'s timer population: 1,184 restartable timers, each
    re-armed from its own callback every 60 s, as a refresher does."""
    rng = random.Random(seed)
    phases = [rng.uniform(0.0, 60.0) for _ in range(1184)]

    def run() -> "tuple[float, int]":
        kernel = Kernel()
        fires = 0

        def make(phase: float) -> None:
            def fired(_now: float) -> None:
                nonlocal fires
                fires += 1
                timer.arm_after(60.0)

            timer = RestartableTimer(kernel, fired)
            timer.arm_at(phase)

        for phase in phases:
            make(phase)
        started = time.perf_counter()
        kernel.run(until=1200.0)
        return time.perf_counter() - started, fires

    return run


def _cond_get(_seed: int) -> Timed:
    """The 304 path of ``OriginServer.handle_request``."""
    object_id = ObjectId("obj0")
    loops = 20_000

    def run() -> "tuple[float, int]":
        server = OriginServer()
        server.create_object(object_id)
        server.apply_update(object_id, 10.0)
        request = conditional_get(
            object_id, if_modified_since=10.0, want_history=True
        )
        handle = server.handle_request
        started = time.perf_counter()
        for _ in range(loops):
            response = handle(request, 20.0)
        elapsed = time.perf_counter() - started
        if response.status is not Status.NOT_MODIFIED:
            raise AssertionError(f"expected a 304, got {response.status}")
        return elapsed, loops

    return run


def _client_hit(seed: int) -> Timed:
    """``ProxyCache.handle_client_request`` on a populated entry."""
    outcome = (
        SimulationBuilder()
        .workload("poisson", "obj0", rate_per_hour=4.0, hours=0.1)
        .policy("static_ttl", ttl=600.0)
        .topology("single")
        .seed(seed)
        .horizon(360.0)
        .run()
    )
    proxy = outcome.run.proxy
    object_id = ObjectId("obj0")
    loops = 50_000

    def run() -> "tuple[float, int]":
        before = proxy.counters.get("client_hits")
        request = proxy.handle_client_request
        started = time.perf_counter()
        for _ in range(loops):
            request(object_id)
        elapsed = time.perf_counter() - started
        if proxy.counters.get("client_hits") - before != loops:
            raise AssertionError("client requests did not all hit")
        return elapsed, loops

    return run


def _lru_churn(seed: int) -> Timed:
    """``ObjectCache`` get/put at capacity 32 over 256 keys, as ``churn``."""
    rng = random.Random(seed)
    keys = [ObjectId(f"obj{i}") for i in range(256)]
    sequence = [keys[int(256 * rng.random() ** 3)] for _ in range(20_000)]

    def run() -> "tuple[float, int]":
        cache = ObjectCache(capacity=32, eviction="lru")
        started = time.perf_counter()
        for key in sequence:
            if cache.get(key) is None:
                cache.put(CacheEntry(key))
        elapsed = time.perf_counter() - started
        if not 0 < cache.eviction_count < len(sequence) or len(cache) != 32:
            raise AssertionError("LRU driver neither hit nor evicted")
        return elapsed, len(sequence)

    return run


def _row_assembly(_seed: int) -> Timed:
    """A ``ColumnarBuilder`` writer plus ``build`` over 8,192 rows."""
    columns = tuple(f"c{i}" for i in range(16))
    written = columns[:12]
    rows = [tuple(float(r + c) for c in range(len(written))) for r in range(8192)]

    def run() -> "tuple[float, int]":
        started = time.perf_counter()
        builder = ColumnarBuilder(columns)
        write = builder.row_writer(written)
        for row in rows:
            write(*row)
        results = builder.build()
        elapsed = time.perf_counter() - started
        if len(results) != len(rows):
            raise AssertionError("row assembly lost rows")
        return elapsed, len(rows)

    return run


#: Metric name -> driver factory.  The unit is ns per operation.
DRIVERS: Dict[str, Callable[[int], Timed]] = {
    "sim.kernel.wheel_ns_per_event": partial(_kernel_program, "wheel"),
    "sim.kernel.heap_ns_per_event": partial(_kernel_program, "heap"),
    "sim.timers.rearm_ns": _timer_rearm,
    "server.cond_get_ns": _cond_get,
    "proxy.client_hit_ns": _client_hit,
    "proxy.cache.lru_churn_ns": _lru_churn,
    "api.row_ns": _row_assembly,
}


def run_drivers(seed: int, runs: int = 5) -> Dict[str, float]:
    """Every driver's best-of-``runs`` cost in ns per operation."""
    results: Dict[str, float] = {}
    for name, factory in DRIVERS.items():
        timed = factory(seed)
        best = float("inf")
        for _ in range(runs):
            elapsed, operations = timed()
            best = min(best, elapsed / operations)
        results[name] = best * 1e9
    return results
