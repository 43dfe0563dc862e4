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
* a self-rescheduling :class:`ClientPump` per edge proxy, which keeps
  the event heap O(edges) no matter how many client arrivals the run
  drives (a pre-scheduled million-event heap would dominate memory).

Topology: a ``cdn_tree`` of levels (1, 8, 16) — one shield proxy, 8
regional proxies, 128 edges — serving 8 Poisson-updated objects under
a static 600 s TTL over a one-hour horizon.  Clients arrive at each
edge as a Poisson process and request objects Zipf-style; every
request goes through the ordinary client path
(:meth:`~repro.proxy.proxy.ProxyCache.handle_client_request`), so
misses trigger real upstream fetch chains.

``pytest benchmarks/scale/bench_scale.py`` runs the million-client
point once, untimed (the file does not match the default ``test_*``
collection pattern, so name it);
``python benchmarks/scale/bench_scale.py --clients 10000 --verify``
is the CI smoke, asserting sharded rows equal the serial run's.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from bisect import bisect_left
from functools import partial
from itertools import accumulate
from typing import List, Optional, Sequence

from repro.api.builder import SimulationOutcome, run_simulation
from repro.api.config import LevelConfig, SimulationConfig
from repro.core.rng import derive_seed
from repro.core.types import ObjectId
from repro.proxy.proxy import ProxyCache
from repro.sim.kernel import Kernel
from repro.topology.tree import TopologyTree

MILLION = 1_000_000

#: Target arrivals for the recorded bench: 5% above the million-client
#: acceptance floor so the Poisson total clears it with ~50σ to spare.
BENCH_CLIENTS = 1_050_000

#: cdn_tree: shield -> 8 regions -> 128 edges (137 nodes).
FAN_OUTS = (1, 8, 16)
OBJECTS = tuple(f"obj{i}" for i in range(8))
TTL_S = 600.0
HORIZON_S = 3600.0
ZIPF_EXPONENT = 0.9
SEED = 1077


class ClientPump:
    """Poisson client arrivals against one edge proxy.

    Self-rescheduling: each arrival handles one request and schedules
    the next, so a pump holds exactly one pending kernel event however
    many clients it drives.  Object choice is Zipf-weighted via one
    cumulative-weight table and ``bisect``.
    """

    def __init__(
        self,
        kernel: Kernel,
        proxy: ProxyCache,
        objects: Sequence[ObjectId],
        rng: random.Random,
        *,
        rate_per_s: float,
        horizon: float,
    ) -> None:
        self._kernel = kernel
        self._proxy = proxy
        self._objects = tuple(objects)
        self._rng = rng
        self._rate = rate_per_s
        self._horizon = horizon
        weights = [
            1.0 / (rank + 1) ** ZIPF_EXPONENT
            for rank in range(len(self._objects))
        ]
        self._cumulative = list(accumulate(weights))
        self.served = 0

    def start(self) -> None:
        self._schedule_next(self._kernel.now())

    def _schedule_next(self, now: float) -> None:
        arrival = now + self._rng.expovariate(self._rate)
        if arrival > self._horizon:
            return
        self._kernel.schedule_at(arrival, self._on_arrival)

    def _on_arrival(self, kernel: Kernel) -> None:
        draw = self._rng.random() * self._cumulative[-1]
        object_id = self._objects[bisect_left(self._cumulative, draw)]
        self._proxy.handle_client_request(object_id)
        self.served += 1
        self._schedule_next(kernel.now())


def _attach_client_pumps(
    tree: TopologyTree, *, clients: int, horizon: float, seed: int
) -> None:
    """Start one pump per registered edge node (the instrument hook).

    Module-level so sharded runs can pickle it to worker processes.
    Each pump's RNG derives from the node's (level, index), so a node
    sees the identical arrival stream whether it runs in the serial
    tree or inside a shard — and nodes outside a shard's cone (no
    registered objects) simply get no pump.
    """
    edges = tree.edge_nodes
    rate_per_s = clients / len(edges) / horizon
    for node in edges:
        objects = node.proxy.registered_objects()
        if not objects:
            continue
        rng = random.Random(
            derive_seed(seed, f"clients[{node.level}][{node.index}]")
        )
        ClientPump(
            tree.kernel,
            node.proxy,
            objects,
            rng,
            rate_per_s=rate_per_s,
            horizon=horizon,
        ).start()


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
    """Drive ``clients`` expected arrivals through the cdn_tree."""
    instrument = partial(
        _attach_client_pumps,
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
