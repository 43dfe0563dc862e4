"""Push notification fan-out: the transport behind push-mode levels.

:class:`PushFanout` is the subscription registry with simulated
delivery delay that every push-capable upstream uses.  Two bindings
place it in a tree:

* :class:`OriginPushSource` — taps an origin server's update stream
  (:meth:`repro.server.origin.OriginServer.add_update_listener`), so
  every applied update is pushed downstream.  This is the paper's
  footnote-1 "server pushes relevant changes to the proxy" design.
* :class:`ProxyPushSource` — observes a parent *proxy*'s completed
  polls and pushes only the updates the parent itself observed.  An
  interior push level therefore relays the parent's (possibly
  subsampled) view, exactly as a real invalidation-forwarding cache
  hierarchy would.

Delivery cost model: one notification message per subscriber per
pushed update, after ``notify_latency`` (one link traversal); the
subscriber's subsequent fetch pays its own network round trip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.core.types import ObjectId, PollOutcome, Seconds
from repro.sim.kernel import Kernel
from repro.sim.stats import Counter
from repro.topology.protocols import PushCallback

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycles
    from repro.proxy.proxy import ProxyCache
    from repro.server.origin import OriginServer


class PushFanout:
    """Subscription registry with simulated notification delivery.

    Satisfies :class:`repro.topology.protocols.PushSource`.  Sources of
    update instants call :meth:`notify`; each subscriber's callback runs
    after ``notify_latency`` (immediately when zero, keeping the
    synchronous fast path allocation-free).
    """

    def __init__(
        self, kernel: Kernel, *, notify_latency: Seconds = 0.0
    ) -> None:
        if notify_latency < 0:
            raise ValueError(
                f"notify_latency must be >= 0, got {notify_latency}"
            )
        self._kernel = kernel
        self._notify_latency = notify_latency
        self._subscribers: Dict[ObjectId, List[PushCallback]] = {}
        self.counters = Counter()

    @property
    def notify_latency(self) -> Seconds:
        return self._notify_latency

    def subscribe(self, object_id: ObjectId, callback: PushCallback) -> None:
        """Register a subscriber for an object's updates."""
        self._subscribers.setdefault(object_id, []).append(callback)
        self.counters.increment("subscriptions")

    def unsubscribe(self, object_id: ObjectId, callback: PushCallback) -> None:
        """Remove a subscriber (no error if absent)."""
        callbacks = self._subscribers.get(object_id)
        if callbacks and callback in callbacks:
            callbacks.remove(callback)

    def subscriber_count(self, object_id: ObjectId) -> int:
        return len(self._subscribers.get(object_id, ()))

    def notify(self, object_id: ObjectId, time: Seconds) -> None:
        """Push one update notification at every subscriber."""
        for callback in list(self._subscribers.get(object_id, ())):
            self.counters.increment("notifications")
            if self._notify_latency == 0:
                callback(object_id, time)
            else:
                # `cb` must be bound as a default: a plain closure would
                # capture the loop variable by reference and deliver
                # every deferred notification to the last subscriber.
                self._kernel.schedule_after(
                    self._notify_latency,
                    lambda _k, cb=callback, oid=object_id, t=time: cb(oid, t),
                    label=f"push.{object_id}",
                )


class OriginPushSource(PushFanout):
    """Pushes every update an origin server applies.

    Taps the server's update stream, so updates fed the normal way
    (:func:`repro.server.updates.feed_traces`) reach subscribers without
    rerouting the feeder — the origin itself is the push source.
    """

    def __init__(
        self,
        kernel: Kernel,
        server: "OriginServer",
        *,
        notify_latency: Seconds = 0.0,
    ) -> None:
        super().__init__(kernel, notify_latency=notify_latency)
        self._server = server
        server.add_update_listener(self.notify)

    @property
    def server(self) -> "OriginServer":
        return self._server


class ProxyPushSource(PushFanout):
    """Pushes the updates a parent proxy *observes* on its own polls.

    Attaches to the parent as a poll observer; a completed poll that
    returned a modified copy is pushed downstream.  Updates the parent
    never saw (overwritten between its polls) stay invisible below —
    the fidelity a real relaying hierarchy provides.
    """

    def __init__(
        self,
        kernel: Kernel,
        parent: "ProxyCache",
        *,
        notify_latency: Seconds = 0.0,
    ) -> None:
        super().__init__(kernel, notify_latency=notify_latency)
        self._parent = parent
        parent.add_observer(self)

    @property
    def parent(self) -> "ProxyCache":
        return self._parent

    def on_poll_complete(
        self, object_id: ObjectId, outcome: PollOutcome
    ) -> None:
        """Poll-observer hook: relay modified polls as push notifications."""
        if outcome.modified:
            self.notify(object_id, outcome.poll_time)
