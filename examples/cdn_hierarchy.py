#!/usr/bin/env python
"""CDN-style hierarchy: edge proxies behind a shared parent cache.

The paper studies one proxy against one origin; its related work
(hierarchical WAN caching, refs [10] and [11]) motivates this scenario:
several regional edge proxies serve clients, all fed by one parent
proxy that alone talks to the origin.  Every level runs the paper's
LIMD policy against the level above it.

Two effects are on display:

* **origin offload** — the origin answers only the parent's polls, no
  matter how many edges exist;
* **staleness composition** — each level adds up to its own Δ of
  staleness, so an edge honours roughly 2Δ against the origin.  The
  fidelity metric scores the versions the edge *actually held* (each
  response's Last-Modified), not just when it polled, so it shows this.

Run:
    python examples/cdn_hierarchy.py
"""

from __future__ import annotations

from repro.consistency.limd import LimdPolicy
from repro.core.types import MINUTE, TTRBounds
from repro.experiments.workloads import news_trace
from repro.httpsim.network import Network
from repro.metrics.collector import collect_temporal
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.server.updates import feed_traces
from repro.sim.kernel import Kernel

DELTA = 10 * MINUTE  # per-level staleness bound
EDGE_COUNT = 4


def limd_policy() -> LimdPolicy:
    return LimdPolicy(
        DELTA, bounds=TTRBounds(ttr_min=DELTA, ttr_max=60 * MINUTE)
    )


def main() -> None:
    trace = news_trace("cnn_fn")
    print(f"Workload: {trace.metadata.name}, {trace.update_count} updates "
          f"over {trace.duration / 3600:.0f} h\n")

    kernel = Kernel()
    origin = OriginServer(name="origin")
    feed_traces(kernel, origin, [trace])

    parent = ProxyCache(kernel, Network(kernel), name="parent")
    parent.register_object(trace.object_id, origin, limd_policy())

    edges = []
    for index in range(EDGE_COUNT):
        edge = ProxyCache(kernel, Network(kernel), name=f"edge-{index}")
        edge.register_object(trace.object_id, parent, limd_policy())
        edges.append(edge)

    kernel.run(until=trace.end_time)

    print(f"origin requests: {origin.counters.get('requests')} "
          f"(all from the parent — {EDGE_COUNT} edges never reach it)")
    print(f"parent polls of origin: {parent.counters.get('polls')}")
    print(f"parent requests served downstream: "
          f"{parent.counters.get('downstream_requests')}\n")

    print(f"{'proxy':<9} {'polls':>6} {'fidelity @ Δ':>13} "
          f"{'fidelity @ 2Δ':>14}")
    for proxy in [parent, *edges]:
        at_delta = collect_temporal(proxy, trace, DELTA).fidelity_by_time
        at_2delta = collect_temporal(proxy, trace, 2 * DELTA).fidelity_by_time
        print(f"{proxy.name:<9} {proxy.counters.get('polls'):>6} "
              f"{at_delta:>13.3f} {at_2delta:>14.3f}")

    print(
        "\nThe parent honours Δ against the origin; each edge honours Δ"
        "\nagainst the parent, hence ~2Δ against the origin — staleness"
        "\nbounds compose additively down a hierarchy."
    )


if __name__ == "__main__":
    main()
