"""Structural protocols for topology nodes.

Two capabilities define what a node can do for the nodes below it:

* :class:`Upstream` — it answers conditional GETs.  Both
  :class:`repro.server.origin.OriginServer` and
  :class:`repro.proxy.proxy.ProxyCache` satisfy this, which is what lets
  a child poll its parent exactly as it would poll an origin.  Defined
  in :mod:`repro.httpsim.semantics` (the proxy layer needs it too) and
  re-exported here.
* :class:`PushSource` — it pushes update notifications at subscribers.
  :class:`repro.topology.push.PushFanout` and its two bindings
  (:class:`~repro.topology.push.OriginPushSource`,
  :class:`~repro.topology.push.ProxyPushSource`) satisfy this.

A hybrid tree mixes the two per level: a node below a push-capable
upstream subscribes and fetches on notification; a node below a plain
upstream polls on its refresh policy's TTR schedule.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from repro.core.types import ObjectId, Seconds
from repro.httpsim.semantics import Upstream as Upstream

#: Called when an update notification reaches a subscriber:
#: ``(object_id, update_time)``.
PushCallback = Callable[[ObjectId, Seconds], None]


@runtime_checkable
class PushSource(Protocol):
    """Anything that pushes update notifications at downstream nodes."""

    def subscribe(self, object_id: ObjectId, callback: PushCallback) -> None:
        """Register a subscriber for an object's update notifications."""
        ...  # pragma: no cover - protocol definition

    def unsubscribe(self, object_id: ObjectId, callback: PushCallback) -> None:
        """Remove a subscriber (no error if absent)."""
        ...  # pragma: no cover - protocol definition
