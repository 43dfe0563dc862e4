"""RL301 fixture: a proxy hand-built beside the topology tree."""

from repro.httpsim.network import Network
from repro.proxy.proxy import ProxyCache


def stand_up(kernel):
    return ProxyCache(kernel, Network(kernel))
