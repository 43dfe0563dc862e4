"""Client load: Poisson arrivals with Zipf object choice, per edge proxy.

The paper's simulator "simulates a proxy cache that receives requests
from several clients"; consistency maintenance itself is autonomous,
but the request path (hits, misses, fetch-on-miss) needs an arrival
model.  :class:`ClientPump` is that model and the tree's one client
load generator: every request goes through the ordinary client path
(:meth:`~repro.proxy.proxy.ProxyCache.handle_client_request`), so
misses trigger real upstream fetch chains.

:func:`attach_client_pumps` is the run-level entry point — a
:data:`~repro.api.builder.TreeInstrument` that starts one pump per
edge node::

    run_simulation(
        config,
        instrument=partial(attach_client_pumps, clients=10_000,
                           horizon=3600.0, seed=7),
    )
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate
from typing import Sequence

from repro.core.rng import derive_seed
from repro.core.types import ObjectId, Seconds, require_positive
from repro.proxy.proxy import ProxyCache
from repro.sim.kernel import Kernel
from repro.topology.tree import TopologyTree

#: Zipf exponent ``s`` of object popularity: the object of rank ``i``
#: (0-based) is requested with weight ``1 / (i + 1) ** s``.
ZIPF_EXPONENT = 0.9


class ClientPump:
    """Poisson client arrivals against one proxy.

    Self-rescheduling: each arrival handles one request and schedules
    the next, so a pump holds exactly one pending kernel event however
    many clients it drives, and schedules none past ``horizon``.
    Object choice is Zipf-weighted (:data:`ZIPF_EXPONENT`, ``objects``
    in rank order) via one cumulative-weight table and ``bisect``.
    Each arrival draws its object, then the gap to the next arrival,
    from ``rng``.
    """

    __slots__ = (
        "_kernel",
        "_proxy",
        "_objects",
        "_rng",
        "_rate",
        "_horizon",
        "_cumulative",
        "served",
    )

    def __init__(
        self,
        kernel: Kernel,
        proxy: ProxyCache,
        objects: Sequence[ObjectId],
        rng: random.Random,
        *,
        rate_per_s: float,
        horizon: Seconds,
    ) -> None:
        if not objects:
            raise ValueError("a client pump needs at least one object")
        self._kernel = kernel
        self._proxy = proxy
        self._objects = tuple(objects)
        self._rng = rng
        self._rate = require_positive("rate_per_s", rate_per_s)
        self._horizon = horizon
        self._cumulative = list(
            accumulate(
                1.0 / (rank + 1) ** ZIPF_EXPONENT
                for rank in range(len(self._objects))
            )
        )
        self.served = 0

    def start(self) -> None:
        self._schedule_next(self._kernel.now())

    def _schedule_next(self, now: Seconds) -> None:
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


def attach_client_pumps(
    tree: TopologyTree, *, clients: int, horizon: Seconds, seed: int
) -> None:
    """Start one pump per edge node that has registered objects.

    ``clients`` expected arrivals over ``[0, horizon]`` are split
    evenly across the edge nodes.  Module-level so sharded runs can
    pickle it to worker processes.  Each pump's RNG derives from the
    node's (level, index), so a node sees the identical arrival stream
    whether it runs in the serial tree or inside a shard — and nodes
    outside a shard's cone (no registered objects) simply get no pump.
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
