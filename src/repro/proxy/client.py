"""Client front-end: issues requests against the proxy.

Workload studies (hit ratios, response composition) drive the proxy
through this layer.  The paper's consistency experiments do not need
clients — TTR-driven polling is autonomous — but a complete proxy has a
request path, and the examples exercise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.types import ObjectId, ObjectSnapshot, Seconds
from repro.proxy.proxy import ProxyCache
from repro.sim.kernel import Kernel
from repro.sim.stats import Counter


@dataclass(frozen=True, slots=True)
class ClientRequestRecord:
    """One client request and how it was served."""

    time: Seconds
    object_id: ObjectId
    hit: bool
    version: int


class Client:
    """A simulated client population issuing requests to the proxy."""

    __slots__ = ("_kernel", "_proxy", "name", "counters", "_log")

    def __init__(self, kernel: Kernel, proxy: ProxyCache, *, name: str = "client") -> None:
        self._kernel = kernel
        self._proxy = proxy
        self.name = name
        self.counters = Counter()
        self._log: List[ClientRequestRecord] = []

    def request(self, object_id: ObjectId) -> ObjectSnapshot:
        """Issue one request now; returns the served snapshot."""
        hits_before = self._proxy.counters.get("client_hits")
        snapshot = self._proxy.handle_client_request(object_id)
        hit = self._proxy.counters.get("client_hits") > hits_before
        self.counters.increment("requests")
        self.counters.increment("hits" if hit else "misses")
        self._log.append(
            ClientRequestRecord(
                time=self._kernel.now(),
                object_id=object_id,
                hit=hit,
                version=snapshot.version,
            )
        )
        return snapshot

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests served from cache (0.0 if none yet)."""
        total = self.counters.get("requests")
        if total == 0:
            return 0.0
        return self.counters.get("hits") / total

    def versions_served(self, object_id: ObjectId) -> List[int]:
        """Versions served to clients for one object, in request order.

        Useful for checking the monotonicity requirement ("we implicitly
        require all cache consistency mechanisms to ensure that P_t
        monotonically increases over time", Section 2).
        """
        return [r.version for r in self._log if r.object_id == object_id]
