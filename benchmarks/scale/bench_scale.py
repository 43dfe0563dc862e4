"""Scale tier — a million simulated clients through a CDN edge tree.

The scale driver wires the three million-client mechanisms together:

* the kernel's batch-dispatch seam plus the analytic fast-forward
  engine (``fidelity="fastforward"``): poll timers live on the engine's
  private scheduler and the kernel batch-dispatches only the client
  arrivals and trace updates — byte-identical rows at a similar speed
  (medians of 10 alternating pairs at 1.05M clients: 3.8 s exact,
  3.5 s fast-forwarded, inside the runs' own 1.5 s spread);
* sharded tree execution (``shards``), which partitions the edge tree
  at a subtree boundary and, given ``workers`` > 1, runs the partitions
  on a process pool (without it they run one after another here);
* the tree's client load generator,
  :func:`repro.workload.clients.attach_client_pumps`: one
  self-rescheduling ``ClientPump`` per edge proxy, which keeps the
  event heap O(edges) no matter how many client arrivals the run
  drives (a pre-scheduled million-event heap would dominate memory).

Topology: a CDN-style tree of levels (1, 8, 16) — one shield proxy, 8
regional proxies, 128 edges — serving 8 Poisson-updated objects under
a static 600 s TTL over a one-hour horizon.  Clients arrive at each
edge as a Poisson process and request objects Zipf-style through the
ordinary client path, so misses trigger real upstream fetch chains.

``pytest benchmarks/scale/bench_scale.py`` runs the million-client
point once, untimed (the file does not match the default ``test_*``
collection pattern, so name it);
``python benchmarks/scale/bench_scale.py --clients 10000 --verify``
is the CI smoke, asserting sharded rows equal the serial run's.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from typing import List, Optional

from repro.api.builder import SimulationOutcome, run_simulation
from repro.api.config import LevelConfig, SimulationConfig
from repro.workload.clients import attach_client_pumps

MILLION = 1_000_000

#: Target arrivals for the recorded bench: 5% above the million-client
#: acceptance floor so the Poisson total clears it with ~50σ to spare.
BENCH_CLIENTS = 1_050_000

#: CDN-style tree: shield -> 8 regions -> 128 edges (137 nodes).
FAN_OUTS = (1, 8, 16)
OBJECTS = tuple(f"obj{i}" for i in range(8))
TTL_S = 600.0
HORIZON_S = 3600.0
SEED = 1077


def _scale_config(
    *, fidelity: str = "exact", shards: int = 1
) -> SimulationConfig:
    from repro.api.builder import SimulationBuilder

    return (
        SimulationBuilder()
        .workload("poisson", *OBJECTS, rate_per_hour=4.0, hours=1.0)
        .policy("static_ttl", ttl=TTL_S)
        .topology(
            "tree",
            levels=[LevelConfig(fan_out=fan_out) for fan_out in FAN_OUTS],
        )
        .seed(SEED)
        .horizon(HORIZON_S)
        .fidelity(fidelity)
        .shards(shards)
        .build()
    )


def run_scale(
    clients: int,
    *,
    fidelity: str = "exact",
    shards: int = 1,
    workers: Optional[int] = None,
) -> SimulationOutcome:
    """Drive ``clients`` expected arrivals through the CDN-style tree."""
    instrument = partial(
        attach_client_pumps,
        clients=clients,
        horizon=HORIZON_S,
        seed=SEED,
    )
    return run_simulation(
        _scale_config(fidelity=fidelity, shards=shards),
        workers=workers,
        instrument=instrument,
    )


def clients_served(outcome: SimulationOutcome) -> int:
    """Total client requests the edge proxies answered.

    Meaningful for unsharded outcomes only: a sharded outcome's live
    proxies cover shard 0's partition, the rest exist as rows.
    """
    return sum(
        proxy.counters.get("client_hits")
        + proxy.counters.get("client_misses")
        for proxy in outcome.edges
    )


def test_scale_million_clients():
    """The headline scale point: >= 1M clients, serial exact kernel."""
    outcome = run_scale(BENCH_CLIENTS)
    assert clients_served(outcome) >= MILLION


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=10_000)
    parser.add_argument(
        "--fidelity", choices=("exact", "fastforward"), default="exact"
    )
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "also run the serial unsharded reference and fail unless "
            "result rows are byte-identical"
        ),
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    outcome = run_scale(
        args.clients,
        fidelity=args.fidelity,
        shards=args.shards,
        workers=args.workers,
    )
    elapsed = time.perf_counter() - started
    label = f"fidelity={args.fidelity} shards={args.shards}"
    if args.shards == 1:
        print(
            f"scale run ({label}): {clients_served(outcome):,} clients "
            f"served in {elapsed:.2f}s"
        )
    else:
        print(f"scale run ({label}): completed in {elapsed:.2f}s")

    if args.verify:
        reference = run_scale(args.clients)
        if outcome.results.to_csv() != reference.results.to_csv():
            print(
                "error: result rows diverge from the serial unsharded "
                "reference",
                file=sys.stderr,
            )
            return 1
        print(
            f"verify: rows byte-identical to serial unsharded reference "
            f"({len(reference.results)} rows)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
