"""The proxy cache: storage, refresh scheduling, client request path."""

from repro.proxy.cache import DEFAULT_EVICTION, EvictionWindow, ObjectCache
from repro.proxy.client import Client, ClientRequestRecord
from repro.proxy.entry import CacheEntry, FetchRecord
from repro.proxy.eviction import (
    EVICTION_POLICIES,
    EvictionPolicy,
    build_eviction_policy,
    register_eviction_policy,
)
from repro.proxy.proxy import ProxyCache
from repro.proxy.refresher import Refresher
from repro.proxy.ttl_registry import TTLClassRegistry

__all__ = [
    "DEFAULT_EVICTION",
    "EVICTION_POLICIES",
    "EvictionPolicy",
    "EvictionWindow",
    "ObjectCache",
    "build_eviction_policy",
    "register_eviction_policy",
    "Client",
    "ClientRequestRecord",
    "CacheEntry",
    "FetchRecord",
    "ProxyCache",
    "Refresher",
    "TTLClassRegistry",
]
