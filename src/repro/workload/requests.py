"""Client request stream generation.

Couples an arrival process with a popularity model and drives a
:class:`~repro.proxy.client.Client` through the kernel, producing the
request-level activity (hits, misses, versions served) that the
examples and integration tests inspect.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import Seconds
from repro.proxy.client import Client
from repro.sim.kernel import Kernel
from repro.workload.arrivals import PoissonArrivals
from repro.workload.popularity import ZipfPopularity


@dataclass(frozen=True)
class RequestStreamConfig:
    """When the stream starts and stops."""

    start: Seconds
    end: Seconds

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"end ({self.end}) must exceed start ({self.start})"
            )


class RequestStream:
    """Schedules a stream of client requests on the kernel.

    Only ``arrivals.next_gap()`` and ``popularity.choose()`` are called,
    so anything with those two methods can stand in for them.
    """

    def __init__(
        self,
        kernel: Kernel,
        client: Client,
        arrivals: PoissonArrivals,
        popularity: ZipfPopularity,
        config: RequestStreamConfig,
    ) -> None:
        self._kernel = kernel
        self._client = client
        self._arrivals = arrivals
        self._popularity = popularity
        self._config = config
        self._scheduled = 0
        self._issued = 0
        self._schedule_next(config.start)

    @property
    def scheduled_count(self) -> int:
        return self._scheduled

    @property
    def issued_count(self) -> int:
        return self._issued

    def _schedule_next(self, after: Seconds) -> None:
        gap = self._arrivals.next_gap()
        when = after + gap
        if when > self._config.end:
            return
        self._kernel.schedule_at(when, self._fire, label="client.request")
        self._scheduled += 1

    def _fire(self, kernel: Kernel) -> None:
        object_id = self._popularity.choose()
        self._client.request(object_id)
        self._issued += 1
        self._schedule_next(kernel.now())
