"""The five end-to-end workloads and the harness's own load generator.

Each workload is a ``prepare(seed, scale)`` function that generates
every input the timed section needs (configs, pre-drawn client
arrivals) and returns a zero-argument ``run`` callable.  ``run`` drives
the simulator through public entry points only and returns an
:class:`Outcome`: the text whose sha256 is the result digest, plus the
exact counts read from public counters afterwards.

``scale`` shrinks a workload for the set-up warm-up (0.1) and the smoke
test (0.05); 1.0 is the size ``expected.json`` pins.  ``--seed`` is the
only source of randomness: the simulator receives only generated inputs.

Everything in this file is the ``loadgen`` layer of the traced run.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, Dict, Sequence, Tuple

from repro.api.builder import SimulationBuilder, SimulationOutcome, run_simulation
from repro.api.config import LevelConfig, SimulationConfig
from repro.core.rng import derive_seed
from repro.core.types import ObjectId
from repro.proxy.proxy import ProxyCache
from repro.scenarios.engine import run_scenario
from repro.scenarios.registry import SCENARIOS
from repro.sim.kernel import Kernel, total_events_processed
from repro.topology.tree import TopologyTree

ZIPF_EXPONENT = 0.9

#: The exact counts every workload reports (0.0 where the workload's
#: entry point does not expose the counter — see README "Exact counts").
COUNT_NAMES = (
    "sim.kernel.events",
    "proxy.polls",
    "proxy.polls_modified",
    "proxy.modified_ratio",
    "proxy.client_requests",
    "proxy.hit_ratio",
    "proxy.downstream_requests",
    "proxy.cache.evictions",
    "proxy.cache.refetches",
    "server.requests",
    "server.updates",
    "api.rows",
)


@dataclass(frozen=True)
class Outcome:
    """What one repetition produced: digest source text and exact counts."""

    payload: str
    counts: Dict[str, float]


Run = Callable[[], Outcome]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrivalStream:
    """One edge's pre-drawn client arrivals: times and object choices."""

    times: "array[float]"
    choices: "array[int]"


EdgeKey = Tuple[int, int]


def draw_arrivals(
    seed: int,
    fan_outs: Sequence[int],
    *,
    arrivals: int,
    objects: int,
    horizon: float,
) -> Dict[EdgeKey, ArrivalStream]:
    """Pre-draw Poisson arrivals with Zipf object choice for every edge.

    ``arrivals`` is the expected total over all edges.  Each edge's
    stream is seeded from its (level, index) alone, so it does not
    depend on how many other edges there are.
    """
    level = len(fan_outs) - 1
    edges = math.prod(fan_outs)
    rate_per_s = arrivals / edges / horizon
    cumulative = list(
        accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(objects))
    )
    total_weight = cumulative[-1]
    streams: Dict[EdgeKey, ArrivalStream] = {}
    for index in range(edges):
        rng = random.Random(derive_seed(seed, f"clients[{level}][{index}]"))
        times = array("d")
        choices = array("H")
        now = rng.expovariate(rate_per_s)
        while now <= horizon:
            times.append(now)
            choices.append(bisect_left(cumulative, rng.random() * total_weight))
            now += rng.expovariate(rate_per_s)
        streams[(level, index)] = ArrivalStream(times, choices)
    return streams


class ClientPump:
    """Replays one edge's pre-drawn arrivals against its proxy.

    Each arrival serves one request and schedules the next, so a pump
    keeps exactly one pending kernel event and the pending set stays
    O(edges) however many clients the run drives.
    """

    __slots__ = ("_schedule_at", "_request", "_objects", "_times", "_choices", "_next")

    def __init__(
        self,
        kernel: Kernel,
        proxy: ProxyCache,
        objects: Sequence[ObjectId],
        stream: ArrivalStream,
    ) -> None:
        self._schedule_at = kernel.schedule_at
        self._request = proxy.handle_client_request
        self._objects = objects
        self._times = stream.times
        self._choices = stream.choices
        self._next = 0
        if self._times:
            self._schedule_at(self._times[0], self._on_arrival)

    def _on_arrival(self, _kernel: Kernel) -> None:
        position = self._next
        self._request(self._objects[self._choices[position]])
        position += 1
        self._next = position
        if position < len(self._times):
            self._schedule_at(self._times[position], self._on_arrival)


def attach_client_pumps(
    tree: TopologyTree,
    *,
    streams: Dict[EdgeKey, ArrivalStream],
    objects: Sequence[ObjectId],
) -> None:
    """The ``instrument`` hook: one pump per edge node of the live tree."""
    for node in tree.edge_nodes:
        ClientPump(
            tree.kernel, node.proxy, objects, streams[(node.level, node.index)]
        )


# ----------------------------------------------------------------------
# Tree workloads
# ----------------------------------------------------------------------
def _object_keys(count: int) -> Tuple[str, ...]:
    return tuple(f"obj{i}" for i in range(count))


def _tree_builder(
    seed: int,
    fan_outs: Sequence[int],
    *,
    objects: int,
    rate_per_hour: float,
    ttl: float,
    horizon: float,
) -> SimulationBuilder:
    return (
        SimulationBuilder()
        .workload(
            "poisson",
            *_object_keys(objects),
            rate_per_hour=rate_per_hour,
            hours=horizon / 3600.0,
        )
        .policy("static_ttl", ttl=ttl)
        .topology("tree", levels=[LevelConfig(fan_out=f) for f in fan_outs])
        .seed(seed)
        .horizon(horizon)
    )


def _tree_counts(outcome: SimulationOutcome, events: int) -> Dict[str, float]:
    tree = outcome.tree
    assert tree is not None
    proxies = [node.proxy for node in tree.nodes]

    def total(name: str) -> int:
        return sum(proxy.counters.get(name) for proxy in proxies)

    polls = total("polls")
    modified = total("polls_modified")
    hits = total("client_hits")
    requests = hits + total("client_misses")
    server = outcome.run.server.counters
    return {
        "sim.kernel.events": events,
        "proxy.polls": polls,
        "proxy.polls_modified": modified,
        "proxy.modified_ratio": _ratio(modified, polls),
        "proxy.client_requests": requests,
        "proxy.hit_ratio": _ratio(hits, requests),
        "proxy.downstream_requests": total("downstream_requests"),
        "proxy.cache.evictions": sum(p.cache.eviction_count for p in proxies),
        "proxy.cache.refetches": sum(
            p.cache.refetch_after_evict_count for p in proxies
        ),
        "server.requests": server.get("requests"),
        "server.updates": server.get("updates_applied"),
        "api.rows": len(outcome.results),
    }


def _tree_run(config: SimulationConfig, arrivals: int = 0) -> Run:
    """A repetition of one tree config under ``arrivals`` expected clients."""
    objects = tuple(ObjectId(key) for key in config.workload.objects)
    instrument = None
    if arrivals:
        assert config.horizon_s is not None
        streams = draw_arrivals(
            config.seed,
            [level.fan_out for level in config.topology.levels],
            arrivals=arrivals,
            objects=len(objects),
            horizon=config.horizon_s,
        )
        instrument = partial(attach_client_pumps, streams=streams, objects=objects)

    def run() -> Outcome:
        before = total_events_processed()
        outcome = run_simulation(config, instrument=instrument)
        events = total_events_processed() - before
        return Outcome(outcome.results.to_csv(), _tree_counts(outcome, events))

    return run


def prepare_clients(seed: int, scale: float) -> Run:
    """CDN tree under a million pre-drawn client arrivals, ~100% hits."""
    config = _tree_builder(
        seed, (1, 8, 16), objects=8, rate_per_hour=4.0, ttl=600.0, horizon=3600.0
    ).build()
    return _tree_run(config, arrivals=round(1_050_000 * scale))


def prepare_churn(seed: int, scale: float) -> Run:
    """Flat tier of 32 LRU caches of 32 entries over 256 objects.

    Scaled by the number of caches: they share nothing but the origin,
    so work is linear in them, whereas fewer arrivals would leave the
    TTL refreshes of evicted objects (half the polls) at full size.
    """
    caches = max(1, round(32 * scale))
    config = (
        _tree_builder(
            seed, (caches,), objects=256, rate_per_hour=4.0, ttl=600.0,
            horizon=3600.0,
        )
        .cache(32, eviction="lru")
        .build()
    )
    return _tree_run(config, arrivals=2_500 * caches)


def _tree_polls(seed: int, scale: float, fidelity: str) -> Run:
    config = (
        _tree_builder(
            seed, (1, 4, 8), objects=32, rate_per_hour=1.0, ttl=60.0,
            horizon=3 * 3600.0 * scale,
        )
        .fidelity(fidelity)
        .build()
    )
    return _tree_run(config)


def prepare_tree_polls(seed: int, scale: float) -> Run:
    """37-node tree, 32 objects, 60 s TTL, no clients: the pure poll path."""
    return _tree_polls(seed, scale, "exact")


def prepare_tree_polls_ff(seed: int, scale: float) -> Run:
    """``tree_polls`` with ``fidelity="fastforward"``; digests must match."""
    return _tree_polls(seed, scale, "fastforward")


# ----------------------------------------------------------------------
# Paper figures
# ----------------------------------------------------------------------
FIGURE_SCENARIOS = ("figure3", "figure5", "figure7", "figure8")
FIGURE_SEEDS = 3


def prepare_figures(seed: int, scale: float) -> Run:
    """The paper's evaluation: four figure scenarios at three seeds each.

    A point is one axis value of one scenario at one seed.  Below full
    size the points kept are dealt one at a time to each (seed,
    scenario) in turn, so a small repetition still visits every
    scenario before it visits any of them twice.
    """
    plans = [
        (name, seed + offset)
        for offset in range(FIGURE_SEEDS)
        for name in FIGURE_SCENARIOS
    ]
    axis = {name: SCENARIOS.get(name).spec.values for name in FIGURE_SCENARIOS}
    points = sum(len(axis[name]) for name, _seed in plans)
    budget = max(1, round(points * min(scale, 1.0)))
    kept = [0] * len(plans)
    while budget:
        for index, (name, _seed) in enumerate(plans):
            if budget and kept[index] < len(axis[name]):
                kept[index] += 1
                budget -= 1

    def run() -> Outcome:
        before = total_events_processed()
        records = []
        polls = 0
        rows = 0
        for (name, scenario_seed), count in zip(plans, kept):
            if not count:
                continue
            result = run_scenario(
                name, seed=scenario_seed, values=axis[name][:count]
            )
            records.append(
                {"scenario": name, "seed": scenario_seed, "rows": result.rows}
            )
            rows += len(result.rows)
            for row in result.rows:
                polls += sum(
                    int(value)
                    for column, value in row.items()
                    if column.endswith("_polls")
                    and not column.endswith("_extra_polls")
                )
        counts = dict.fromkeys(COUNT_NAMES, 0.0)
        counts["sim.kernel.events"] = total_events_processed() - before
        counts["proxy.polls"] = polls
        counts["api.rows"] = rows
        return Outcome(json.dumps(records, sort_keys=True), counts)

    return run


WORKLOADS: Dict[str, Callable[[int, float], Run]] = {
    "figures": prepare_figures,
    "clients": prepare_clients,
    "churn": prepare_churn,
    "tree_polls": prepare_tree_polls,
    "tree_polls_ff": prepare_tree_polls_ff,
}

#: Workloads whose digest must equal another workload's at the same
#: seed and scale (checked in set-up at warm-up size, and at full size
#: through expected.json and whenever both ran).
SAME_DIGEST_AS = {"tree_polls_ff": "tree_polls"}
