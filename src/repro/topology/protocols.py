"""Structural protocols for topology nodes.

:class:`Upstream` is what a node needs from the node above it: it
answers conditional GETs.  Both :class:`repro.server.origin.OriginServer`
and :class:`repro.proxy.proxy.ProxyCache` satisfy it, which is what lets
a child poll its parent exactly as it would poll an origin.  Defined in
:mod:`repro.httpsim.semantics` (the proxy layer needs it too) and
re-exported here.
"""

from __future__ import annotations

from repro.httpsim.semantics import Upstream as Upstream
