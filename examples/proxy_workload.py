#!/usr/bin/env python
"""Full proxy workload: clients, Zipf popularity, bounded LRU cache.

Exercises the request path the paper's simulator models ("a proxy cache
that receives requests from several clients"): a Poisson client
population requests objects under Zipf popularity
(:mod:`repro.workload.clients`); the proxy serves hits from cache while
LIMD keeps every cached object within its Δt bound; an LRU cache that
holds fewer objects than the site has shows the eviction machinery a
deployable proxy needs (the paper's own experiments assume an
infinite cache).

Run:
    python examples/proxy_workload.py
"""

from __future__ import annotations

from functools import partial

from repro.api.builder import SimulationBuilder, run_simulation
from repro.api.config import LevelConfig
from repro.core.types import MINUTE
from repro.workload.clients import ZIPF_EXPONENT, attach_client_pumps

OBJECT_COUNT = 20
CACHE_CAPACITY = 16
HOURS = 4
HORIZON = HOURS * 3600.0
DELTA = 5 * MINUTE
CLIENTS = 7200  # 0.5 requests/second across all clients
SEED = 2024


def main() -> None:
    config = (
        SimulationBuilder()
        .workload(
            "poisson",
            *(f"page-{rank}" for rank in range(OBJECT_COUNT)),
            rate_per_hour=3.0,
            hours=HOURS,
        )
        .policy("limd", delta=DELTA, ttr_max=60 * MINUTE)
        .topology("tree", levels=[LevelConfig(fan_out=1)])
        .cache(CACHE_CAPACITY)
        .seed(SEED)
        .horizon(HORIZON)
        .fidelity_delta(DELTA)
        .build()
    )
    outcome = run_simulation(
        config,
        instrument=partial(
            attach_client_pumps, clients=CLIENTS, horizon=HORIZON, seed=SEED
        ),
    )
    proxy = outcome.run.proxy
    hits = proxy.counters.get("client_hits")
    misses = proxy.counters.get("client_misses")
    requests = hits + misses

    print(f"Simulated {HOURS} h: {requests} client requests over "
          f"{OBJECT_COUNT} objects (Zipf {ZIPF_EXPONENT}), "
          f"LRU cache of {CACHE_CAPACITY}")
    print(f"Cache hit ratio: {hits / requests:.1%} "
          f"({misses} misses fetched from the origin)")
    print(f"Consistency polls issued by the proxy: "
          f"{proxy.counters.get('polls')}\n")

    print(f"{'object':<10} {'updates':>8} {'polls':>6} {'fidelity':>9} "
          f"{'evictions':>10}")
    for row in list(outcome.results)[:8]:
        fidelity = row["fidelity_by_violations"]
        shown = "-" if fidelity is None else f"{fidelity:.3f}"
        print(f"{row['object']:<10} {row['updates']:>8} {row['polls']:>6} "
              f"{shown:>9} {row['evictions']:>10}")
    print("...  (polls and fidelity cover each object's current stay in "
          "the cache)")

    # Versions the proxy fetches must never go backwards (Section 2's
    # monotonicity requirement); a client is served either the cached
    # snapshot or the one a miss just fetched.
    for object_id in proxy.registered_objects():
        entry = proxy.entry_or_none(object_id)
        if entry is None:
            continue  # evicted, not refetched since
        versions = [snapshot.version for snapshot in entry.fetch_snapshots]
        assert versions == sorted(versions), "monotonicity violated!"
    print("\nMonotonicity check passed: no fetch ever returned a version "
          "older than one previously cached.")


if __name__ == "__main__":
    main()
