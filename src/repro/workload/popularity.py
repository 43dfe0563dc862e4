"""Object popularity models.

Web object popularity is famously Zipf-like; the request generator uses
these distributions to pick which object each arrival asks for.

Weighted sampling uses :class:`AliasSampler` (Vose's alias method):
O(n) table construction once, then O(1) per draw — the previous
binary-search-over-CDF sampler paid O(log n) per request, which
dominated request generation for large catalogues.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.core.types import ObjectId


class AliasSampler:
    """O(1) weighted index sampling via Vose's alias method.

    Builds two tables from the weight vector: ``prob[i]`` is the chance
    that column ``i`` keeps its own index, and ``alias[i]`` the index it
    defers to otherwise.  Each draw uses a single uniform variate:
    scaled by ``n``, its integer part picks the column and its
    fractional part runs the biased coin — so index ``i`` is returned
    with probability ``weights[i] / sum(weights)`` (up to float
    rounding).

    Args:
        weights: Non-negative weights, at least one positive.
        rng: Random stream used by :meth:`draw_index`.
    """

    __slots__ = ("_prob", "_alias", "_n", "_random")

    def __init__(self, weights: Sequence[float], rng: random.Random) -> None:
        n = len(weights)
        if n == 0:
            raise ValueError("need at least one weight")
        total = 0.0
        for w in weights:
            if w < 0:
                raise ValueError(f"weights must be >= 0, got {w}")
            total += w
        if total <= 0:
            raise ValueError("weights must not all be zero")
        scaled = [w * n / total for w in weights]
        prob = [0.0] * n
        alias = [0] * n
        small: List[int] = []
        large: List[int] = []
        for index, p in enumerate(scaled):
            (small if p < 1.0 else large).append(index)
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            (small if scaled[g] < 1.0 else large).append(g)
        # Leftovers are exactly 1.0 up to rounding; they keep their own
        # column.
        for index in large:
            prob[index] = 1.0
        for index in small:
            prob[index] = 1.0
        self._prob = prob
        self._alias = alias
        self._n = n
        self._random = rng.random

    def __len__(self) -> int:
        return self._n

    def draw_index(self) -> int:
        """Draw one index, distributed per the construction weights."""
        n = self._n
        u = self._random() * n
        index = int(u)
        if index >= n:  # u == n only via float rounding at the edge
            index = n - 1
        if (u - index) < self._prob[index]:
            return index
        return self._alias[index]


class ZipfPopularity:
    """Zipf(s) popularity: the i-th ranked object has weight 1/i^s.

    Draws are O(1) via :class:`AliasSampler` rather than O(log n)
    CDF bisection; the distribution is unchanged (exactly the
    normalised Zipf weights), though the mapping from raw uniform
    variates to objects differs, so seeded draw *sequences* differ from
    pre-alias versions of this class.

    Args:
        objects: Objects in rank order (index 0 = most popular).
        exponent: The Zipf exponent ``s`` (web workloads: ~0.6–1.0).
        rng: Random stream.
    """

    def __init__(
        self,
        objects: Sequence[ObjectId],
        exponent: float,
        rng: random.Random,
    ) -> None:
        if not objects:
            raise ValueError("need at least one object")
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        self._objects = list(objects)
        weights = [1.0 / ((rank + 1) ** exponent) for rank in range(len(objects))]
        self._sampler = AliasSampler(weights, rng)

    def choose(self) -> ObjectId:
        """The object the next request asks for."""
        return self._objects[self._sampler.draw_index()]
