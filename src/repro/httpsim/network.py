"""Network model between the proxy and origin servers.

The paper's simulation "assumes ... that the network latency in polling
and fetching objects from the server is fixed" (Section 6.1.1), because
the study targets consistency mechanisms, not network dynamics.  We
model exactly that: a fixed one-way latency per link, applied
symmetrically, with an optional synchronous (zero-latency) fast path
that the experiment harness uses by default.

A small jitter hook exists for robustness experiments but defaults off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.types import Seconds
from repro.httpsim.messages import Request, Response
from repro.sim.kernel import Kernel

#: A server-side handler: takes (request, arrival_time) → response.
ServerHandler = Callable[[Request, Seconds], Response]
#: A proxy-side continuation invoked when the response arrives.
ResponseCallback = Callable[[Response], None]


@dataclass(frozen=True)
class LatencyModel:
    """Fixed one-way latency with optional uniform jitter.

    Attributes:
        one_way: Base one-way latency in seconds (0 = synchronous).
        jitter: Half-width of uniform jitter added per direction.
    """

    one_way: Seconds = 0.0
    jitter: Seconds = 0.0

    def __post_init__(self) -> None:
        if self.one_way < 0:
            raise ValueError(f"one_way latency must be >= 0, got {self.one_way}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.jitter > self.one_way:
            raise ValueError(
                f"jitter ({self.jitter}) cannot exceed one_way ({self.one_way}); "
                "latency would go negative"
            )

    def sample_one_way(self, rng: Optional[random.Random]) -> Seconds:
        """Draw one direction's latency."""
        if self.jitter == 0 or rng is None:
            return self.one_way
        return self.one_way + rng.uniform(-self.jitter, self.jitter)

    @property
    def is_synchronous(self) -> bool:
        """True when exchanges complete instantaneously."""
        return self.one_way == 0 and self.jitter == 0


class Network:
    """Delivers requests to a server handler and responses back.

    With a synchronous latency model, :meth:`exchange` runs the whole
    round trip inline and invokes the callback before returning — the
    mode all paper experiments use.  With nonzero latency, delivery is
    scheduled on the kernel.

    Attributes:
        synchronous: Cached latency-model check, so per-poll callers can
            branch on a plain attribute (the LatencyModel is immutable).
        requests_sent: Requests put on this link; a proxy that polls a
            synchronous link's upstream directly counts them here.
    """

    def __init__(
        self,
        kernel: Kernel,
        latency: LatencyModel = LatencyModel(),
        *,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._kernel = kernel
        self._latency = latency
        self._rng = rng
        self.requests_sent = 0
        self.synchronous: bool = latency.is_synchronous

    @property
    def latency(self) -> LatencyModel:
        return self._latency

    def exchange(
        self,
        request: Request,
        handler: ServerHandler,
        callback: ResponseCallback,
    ) -> None:
        """Send ``request`` to ``handler``; deliver the response to
        ``callback`` after the modelled round trip."""
        self.requests_sent += 1
        if self.synchronous:
            callback(handler(request, self._kernel.now()))
            return

        forward = self._latency.sample_one_way(self._rng)

        def deliver_request(kernel: Kernel) -> None:
            response = handler(request, kernel.now())
            backward = self._latency.sample_one_way(self._rng)
            kernel.schedule_after(
                backward,
                lambda _k: callback(response),
                label=f"net.response.{request.object_id}",
            )

        self._kernel.schedule_after(
            forward, deliver_request, label=f"net.request.{request.object_id}"
        )
