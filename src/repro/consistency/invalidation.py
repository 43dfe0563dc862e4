"""Server-push strong consistency (the paper's footnote-1 extension).

The paper studies proxy-side (pull) mechanisms and explicitly defers
"server-based approaches ... in such approaches, the server pushes
relevant changes to the proxy".  This module implements that deferred
design as an extension, giving the evaluation a strong-consistency
anchor point (Section 2, Eq. 1: the proxy is always up to date):

* :class:`PushChannel` — a subscription registry on the origin side
  (a :class:`~repro.topology.push.PushFanout` bound to one server).
  When an update is applied to a subscribed object, the channel delivers
  a notification to each subscriber over the simulated network.  The
  topology layer (:mod:`repro.topology`) places the same mechanism at
  *any* tree level, not just against the origin.
* :class:`PushConsistencyClient` — the proxy-side half: subscribes the
  object, and on each notification refreshes the cache entry (modelled
  as an immediate conditional GET, so the proxy/cache bookkeeping and
  counters stay uniform with the pull policies).

With zero network latency this yields exact strong consistency (every
update reaches the cache at its commit instant); with latency l the
copy lags by at most one round trip — the classic invalidation bound.

Cost model: one push notification + one fetch per update, i.e. message
cost proportional to the *update* rate, where polling costs are
proportional to the *poll* rate.  The extension bench
(``benchmarks/bench_extension_push.py``) quantifies the crossover.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.consistency.base import PassivePolicy
from repro.core.events import PollReason
from repro.core.types import ObjectId, Seconds
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.server.updates import UpdateFeeder
from repro.sim.kernel import Kernel
from repro.sim.stats import Counter
from repro.topology.push import PushFanout
from repro.traces.model import UpdateTrace

# The canonical home of the push-callback signature moved to the
# topology layer; the redundant alias keeps old imports working.
from repro.topology.protocols import PushCallback as PushCallback


class PushChannel(PushFanout):
    """Origin-side subscription registry with simulated delivery delay.

    A :class:`~repro.topology.push.PushFanout` bound to one origin
    server.  Either route updates through :meth:`apply_update`, or
    install the channel as the server's update tap via
    :func:`attach_push_channel` so updates fed the normal way
    (:func:`repro.server.updates.feed_traces`) notify subscribers too.
    """

    def __init__(
        self,
        kernel: Kernel,
        server: OriginServer,
        *,
        notify_latency: Seconds = 0.0,
    ) -> None:
        super().__init__(kernel, notify_latency=notify_latency)
        self._server = server
        self._attached = False

    @property
    def server(self) -> OriginServer:
        return self._server

    @property
    def attached(self) -> bool:
        """Whether the channel is tapping the server's update stream."""
        return self._attached

    def attach(self) -> None:
        """Become the server's update tap (idempotent).

        After attaching, *every* update applied at the origin — whether
        via :meth:`apply_update`, a plain
        :meth:`~repro.server.origin.OriginServer.apply_update`, or the
        trace feeders — is pushed to subscribers exactly once.
        """
        if not self._attached:
            self._attached = True
            self._server.add_update_listener(self.notify)

    def apply_update(
        self, object_id: ObjectId, time: Seconds, value: Optional[float] = None
    ) -> None:
        """Apply an update at the origin and notify subscribers."""
        self._server.apply_update(object_id, time, value)
        if not self._attached:
            # An attached channel already saw the update through the
            # server's listener hook; notifying here would double-push.
            self.notify(object_id, time)


def attach_push_channel(channel: PushChannel) -> PushChannel:
    """Install a channel as its server's update tap (see ``attach``)."""
    channel.attach()
    return channel


class PushConsistencyClient:
    """Proxy-side push consumer: strong consistency for chosen objects.

    Registers each object with a :class:`PassivePolicy` (no TTR-driven
    refresh) and fetches on every push notification instead.
    """

    def __init__(self, proxy: ProxyCache, channel: PushChannel) -> None:
        self._proxy = proxy
        self._channel = channel
        self._objects: Set[ObjectId] = set()
        self.counters = Counter()

    def register_object(self, object_id: ObjectId) -> None:
        """Place an object under push-driven strong consistency."""
        if object_id in self._objects:
            raise ValueError(f"object {object_id!r} already push-registered")
        self._objects.add(object_id)
        self._proxy.register_object(
            object_id, self._channel.server, PassivePolicy()
        )
        self._channel.subscribe(object_id, self._on_push)

    def deregister_object(self, object_id: ObjectId) -> None:
        self._objects.discard(object_id)
        self._channel.unsubscribe(object_id, self._on_push)
        self._proxy.deregister_object(object_id)

    @property
    def registered_objects(self) -> Set[ObjectId]:
        return set(self._objects)

    def _on_push(self, object_id: ObjectId, _update_time: Seconds) -> None:
        self.counters.increment("pushes_received")
        self._proxy.trigger_poll(object_id, reason=PollReason.PUSH)


class PushUpdateFeeder(UpdateFeeder):
    """Feeds a trace's updates through a :class:`PushChannel`.

    An :class:`~repro.server.updates.UpdateFeeder` whose sink is the
    channel's :meth:`~PushChannel.apply_update` rather than the
    server's, so subscribers are notified whether or not the channel is
    attached.
    """

    def __init__(
        self, kernel: Kernel, channel: PushChannel, trace: UpdateTrace
    ) -> None:
        super().__init__(kernel, channel.server, trace)
        self._sink = channel.apply_update
