"""Client request arrival processes.

The paper's simulator "simulates a proxy cache that receives requests
from several clients"; consistency maintenance itself is autonomous, but
the request path (hits/misses) needs an arrival model — Poisson
(exponential gaps) here.
"""

from __future__ import annotations

import random

from repro.core.types import Seconds, require_positive


class PoissonArrivals:
    """Memoryless arrivals at a given mean rate."""

    def __init__(self, rate_per_second: float, rng: random.Random) -> None:
        self._rate = require_positive("rate_per_second", rate_per_second)
        self._rng = rng

    @property
    def rate(self) -> float:
        return self._rate

    def next_gap(self) -> Seconds:
        """The gap until the next arrival, in seconds (> 0)."""
        return self._rng.expovariate(self._rate)
