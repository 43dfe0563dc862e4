"""Generic synthetic workload builders.

The calibrated Table 2/3 generators live in :mod:`repro.traces.news`
and :mod:`repro.traces.stocks`; this module provides the general-purpose
building blocks downstream users need for their own studies:

* :func:`poisson_update_times` — memoryless update instants at a rate;
* :func:`poisson_trace` — the same, packaged as an `UpdateTrace`;
* :func:`correlated_group_traces` — a group of objects updated in
  correlated bursts (the breaking-news pattern motivating mutual
  consistency): every burst hits a *leader* object and each follower
  joins with its own probability and a bounded lag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.types import ObjectId, Seconds, require_finite, require_positive
from repro.traces.model import TraceMetadata, UpdateTrace, trace_from_times


def poisson_update_times(
    rng: random.Random,
    rate: float,
    *,
    start: Seconds = 0.0,
    end: Seconds,
) -> List[Seconds]:
    """Update instants of a homogeneous Poisson process on (start, end)."""
    require_positive("rate", rate)
    require_finite("start", start)
    require_finite("end", end)
    if end <= start:
        raise ValueError(f"end ({end}) must exceed start ({start})")
    times: List[Seconds] = []
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return times
        times.append(t)


def poisson_trace(
    object_id: str,
    rng: random.Random,
    rate: float,
    *,
    start: Seconds = 0.0,
    end: Seconds,
) -> UpdateTrace:
    """A temporal-domain trace with Poisson update instants."""
    times = poisson_update_times(rng, rate, start=start, end=end)
    return trace_from_times(
        ObjectId(object_id),
        times,
        start_time=start,
        end_time=end,
        metadata=TraceMetadata(
            name=object_id,
            description=f"poisson updates at rate {rate:.4g}/s",
            source="synthetic:poisson",
        ),
    )


@dataclass(frozen=True)
class FollowerSpec:
    """How one follower object participates in the leader's bursts.

    Attributes:
        object_id: The follower's id.
        join_probability: Chance the follower is updated in a burst.
        max_lag: The follower's update lands within [0, max_lag] seconds
            after the burst instant.
    """

    object_id: str
    join_probability: float
    max_lag: Seconds = 60.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.join_probability <= 1.0:
            raise ValueError(
                f"join_probability must be in [0, 1], got {self.join_probability}"
            )
        if self.max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {self.max_lag}")


def correlated_group_traces(
    leader_id: str,
    followers: Sequence[FollowerSpec],
    rng: random.Random,
    *,
    burst_rate: float,
    end: Seconds,
    start: Seconds = 0.0,
) -> Dict[ObjectId, UpdateTrace]:
    """Build a leader + followers group updated in correlated bursts.

    Every burst updates the leader; each follower joins independently
    with its configured probability and lag.  This is the update pattern
    of the paper's motivating example — a story page whose media assets
    change alongside it — and the natural workload for exercising the
    mutual-consistency coordinators.
    """
    bursts = poisson_update_times(rng, burst_rate, start=start, end=end)
    times: Dict[str, List[Seconds]] = {leader_id: list(bursts)}
    for follower in followers:
        follower_times: List[Seconds] = []
        for burst in bursts:
            if rng.random() < follower.join_probability:
                lag = rng.uniform(0.0, follower.max_lag) if follower.max_lag else 0.0
                when = burst + lag
                if when < end:
                    follower_times.append(when)
        times[follower.object_id] = follower_times

    traces: Dict[ObjectId, UpdateTrace] = {}
    for object_id, instants in times.items():
        deduped = sorted(set(instants))
        traces[ObjectId(object_id)] = trace_from_times(
            ObjectId(object_id),
            deduped,
            start_time=start,
            end_time=end,
            metadata=TraceMetadata(
                name=object_id,
                description="correlated burst workload",
                source="synthetic:correlated",
            ),
        )
    return traces

