"""The proxy cache — ties together cache, refreshers, network, policies.

The proxy:

* serves client requests from cache (hits) or by fetching from the
  origin (misses), per Section 5's design;
* registers objects for consistency maintenance: each registered object
  gets a :class:`~repro.proxy.refresher.Refresher` driven by a
  :class:`~repro.consistency.base.RefreshPolicy`;
* polls origins with conditional GETs when TTRs expire;
* notifies observers (the mutual-consistency coordinators) of every
  completed poll so they can trigger polls of related objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.consistency.base import PollObserver, RefreshPolicy
from repro.core.errors import (
    CacheConfigurationError,
    ProtocolError,
    SimulationError,
    UnknownObjectError,
)
from repro.core.events import PollReason
from repro.core.types import ObjectId, ObjectSnapshot, Seconds
from repro.httpsim.messages import Method, Request, Response, Status
from repro.httpsim.network import Network
from repro.httpsim.semantics import (
    Answer,
    Upstream,
    answer_conditional_get,
    response_to,
)
from repro.proxy.cache import ObjectCache
from repro.proxy.entry import CacheEntry
from repro.proxy.refresher import Refresher
from repro.sim.kernel import Kernel
from repro.sim.stats import Counter

# Enum members the per-poll and per-request paths read, bound once: on
# CPython 3.11 a member read through its class (``Status.OK``) runs the
# metaclass's ``__getattr__`` hook, about 4x a plain class attribute.
_GET = Method.GET
_OK = Status.OK
_NOT_MODIFIED = Status.NOT_MODIFIED
_CACHE_MISS = PollReason.CACHE_MISS
_MUTUAL_TRIGGER = PollReason.MUTUAL_TRIGGER


class ProxyCache:
    """A simulated web proxy cache with pluggable consistency policies.

    Args:
        kernel: The simulation kernel (provides the clock and timers).
        network: Transport to origin servers.
        cache: Storage; defaults to an unbounded cache (the paper's
            configuration).
        want_history: Whether polls request the Section 5.1
            modification-history extension.
        name: Identifier used in logs and error messages; give each
            level of a proxy hierarchy a distinct name.
    """

    __slots__ = (
        "name",
        "_kernel",
        "_network",
        "_cache",
        "_want_history",
        "triggered_polls_reschedule",
        "_servers",
        "_refreshers",
        "_observers",
        "counters",
    )

    def __init__(
        self,
        kernel: Kernel,
        network: Network,
        *,
        cache: Optional[ObjectCache] = None,
        want_history: bool = True,
        triggered_polls_reschedule: bool = False,
        name: str = "proxy",
    ) -> None:
        self.name = name
        self._kernel = kernel
        self._network = network
        self._cache = cache if cache is not None else ObjectCache()
        # Absence spans carry simulation timestamps.
        self._cache.bind_clock(kernel.now)
        self._want_history = want_history
        #: Whether a MUTUAL_TRIGGER poll replaces the object's next
        #: scheduled poll (True) or is an additional poll on top of the
        #: unchanged schedule (False, the paper's semantics).
        self.triggered_polls_reschedule = triggered_polls_reschedule
        self._servers: Dict[ObjectId, Upstream] = {}
        self._refreshers: Dict[ObjectId, Refresher] = {}
        self._observers: List[PollObserver] = []
        self.counters = Counter()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> Kernel:
        return self._kernel

    @property
    def cache(self) -> ObjectCache:
        return self._cache

    @property
    def network(self) -> Network:
        """The upstream link this proxy polls over."""
        return self._network

    @property
    def want_history(self) -> bool:
        return self._want_history

    def add_observer(self, observer: PollObserver) -> None:
        """Attach a poll observer (e.g. a mutual-consistency coordinator)."""
        self._observers.append(observer)

    def remove_observer(self, observer: PollObserver) -> None:
        self._observers.remove(observer)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_object(
        self,
        object_id: ObjectId,
        server: Upstream,
        policy: RefreshPolicy,
        *,
        initial_fetch: bool = True,
    ) -> Refresher:
        """Place an object under consistency maintenance.

        Performs the initial fetch (so the cache starts populated, as a
        proxy that has just served a miss would be) and arms the first
        refresh at ``policy.first_ttr()`` from now.

        ``server`` may be an origin server or another :class:`ProxyCache`
        (a hierarchy's parent) — anything satisfying
        :class:`~repro.httpsim.semantics.Upstream`.
        """
        if object_id in self._refreshers:
            raise CacheConfigurationError(
                f"object {object_id!r} is already registered"
            )
        self._servers[object_id] = server
        refresher = Refresher(self._kernel, object_id, policy, self._issue_poll)
        self._refreshers[object_id] = refresher
        if initial_fetch:
            self._issue_poll(object_id, PollReason.INITIAL_FETCH)
        refresher.start()
        return refresher

    def refresher_for(self, object_id: ObjectId) -> Refresher:
        try:
            return self._refreshers[object_id]
        except KeyError:
            raise UnknownObjectError(str(object_id), where="proxy refreshers") from None

    def entry_for(self, object_id: ObjectId) -> CacheEntry:
        entry = self._cache.get(object_id, touch=False)
        if entry is None:
            raise UnknownObjectError(str(object_id), where="proxy cache")
        return entry

    def entry_or_none(self, object_id: ObjectId) -> Optional[CacheEntry]:
        """Like :meth:`entry_for`, but evicted objects yield ``None``.

        A bounded cache can have dropped an object by end of run; the
        metrics collectors must distinguish "evicted, history gone" from
        "never registered" (still an :class:`UnknownObjectError`).
        """
        entry = self._cache.get(object_id, touch=False)
        if entry is not None:
            return entry
        if self._cache.was_evicted(object_id):
            return None
        raise UnknownObjectError(str(object_id), where="proxy cache")

    def registered_objects(self) -> List[ObjectId]:
        return list(self._refreshers)

    # ------------------------------------------------------------------
    # Client-facing request path
    # ------------------------------------------------------------------
    def handle_client_request(self, object_id: ObjectId) -> ObjectSnapshot:
        """Serve a client request: cache hit or fetch-on-miss.

        Cache hits return the cached snapshot without contacting the
        origin (the consistency policy is responsible for freshness);
        misses fetch from the origin synchronously and populate the
        cache.  Over a latent upstream link a miss cannot be answered
        within the call: it raises
        :class:`~repro.core.errors.SimulationError`.
        """
        entry = self._cache.get(object_id)
        if entry is not None:
            snapshot = entry.snapshot
            if snapshot is not None:
                entry.record_hit()
                self.counters.counts["client_hits"] += 1
                return snapshot
        self.counters.counts["client_misses"] += 1
        # _issue_poll resolves the server binding (and raises without one).
        entry = self._issue_poll(object_id, _CACHE_MISS)
        snapshot = entry.snapshot
        if snapshot is None:
            # The fetch is in flight, not refused: only a latent link
            # returns before its answer lands (a synchronous 404 already
            # raised ProtocolError inside the poll).
            latency = self._network.latency
            raise SimulationError(
                f"client request for {object_id!r} missed at {self.name}, "
                f"whose upstream link is latent (one_way={latency.one_way} s, "
                f"jitter={latency.jitter} s): the fetch cannot be answered "
                "within the request, so serve clients from a proxy on a "
                "synchronous link"
            )
        return snapshot

    def bind_server(self, object_id: ObjectId, server: Upstream) -> None:
        """Associate an object with an upstream without registering a policy.

        Used by workload-only scenarios (pure hit/miss studies).
        """
        self._servers[object_id] = server

    # ------------------------------------------------------------------
    # Upstream-facing request path (hierarchical caching)
    # ------------------------------------------------------------------
    def respond(
        self,
        object_id: ObjectId,
        if_modified_since: Optional[Seconds],
        wants_history: bool,
        now: Seconds,
    ) -> Answer:
        """Answer a conditional GET from this proxy's cache.

        Makes the proxy usable as the upstream of another proxy (it
        satisfies :class:`~repro.httpsim.semantics.Upstream`): a
        child's poll is served from whatever this proxy currently
        caches, *without* contacting the origin — the child's freshness
        is bounded by this proxy's own consistency policy.  Only a miss
        (a bounded cache evicted the object) fetches through, and only
        over a synchronous upstream link.  The history extension is
        served from the modification times this proxy has itself
        observed, so intermediate updates this proxy missed stay
        invisible downstream (the fidelity a real hierarchy provides).
        """
        self.counters.counts["downstream_requests"] += 1
        # The entry dict, read directly: a lookup that marks no recency
        # and costs no method frame per child poll.
        entries = self._cache.entries
        entry = entries.get(object_id)
        snapshot = entry.snapshot if entry is not None else None
        if (
            snapshot is None
            and object_id in self._servers
            and self._network.synchronous
        ):
            # A bounded cache evicted the object (or never held it):
            # fetch through, as a client miss would.  Over a latent link
            # the answer cannot arrive within this call, so the 404
            # below stands.
            self._issue_poll(object_id, _CACHE_MISS)
            entry = entries.get(object_id)
            snapshot = entry.snapshot if entry is not None else None
        if entry is None or snapshot is None:
            self.counters.increment("downstream_404")
            return answer_conditional_get(
                if_modified_since, wants_history, None, None, None, ()
            )
        return answer_conditional_get(
            if_modified_since,
            wants_history,
            snapshot.last_modified,
            snapshot.version,
            snapshot.value,
            # Read, never kept: a 200's history is a fresh slice of it.
            entry.modification_times,
        )

    def handle_request(self, request: Request, now: Seconds) -> Response:
        """:meth:`respond` to ``request``, as the message a latent link
        delivers."""
        answer = self.respond(
            request.object_id, request.if_modified_since, request.wants_history, now
        )
        return response_to(request, answer, now)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def recover_from_failure(self) -> int:
        """Simulate a proxy crash-and-restart (paper Section 3.1).

        The paper argues LIMD's minimal state makes recovery trivial:
        "recovering from a proxy failure simply involves reseting the
        TTRs of all objects to TTR_min".  Every registered object's
        policy is reset and its refresh timer restarted; cached entries
        survive (they are revalidated by the next conditional GET).

        Returns:
            The number of objects whose refreshers were recovered.
        """
        self.counters.increment("recoveries")
        recovered = 0
        for refresher in self._refreshers.values():
            refresher.recover()
            recovered += 1
        return recovered

    # ------------------------------------------------------------------
    # Coordinator-facing poll path
    # ------------------------------------------------------------------
    def trigger_poll(self, object_id: ObjectId, *, reason: PollReason) -> None:
        """Force an immediate poll of a registered object.

        Mutual-trigger polls follow ``triggered_polls_reschedule``;
        other forced polls always replace the scheduled one.
        """
        reschedule = (
            self.triggered_polls_reschedule
            if reason is _MUTUAL_TRIGGER
            else True
        )
        self.refresher_for(object_id).poll_now(reason, reschedule=reschedule)

    # ------------------------------------------------------------------
    # Internal poll machinery
    # ------------------------------------------------------------------
    def _issue_poll(
        self, object_id: ObjectId, reason: PollReason, kernel: Optional[Kernel] = None
    ) -> CacheEntry:
        """Poll the upstream; returns the entry the answer lands in.  The
        kernel that dispatches a refresher's expiry here is ignored."""
        server = self._servers.get(object_id)
        if server is None:
            raise UnknownObjectError(str(object_id), where="proxy server bindings")
        cache = self._cache
        entry = cache.entries.get(object_id)
        if entry is None or cache.bounded:
            # Create the entry, or mark it recently used.
            entry = cache.get_or_create(object_id)
        now = self._kernel.time
        cached = entry.snapshot
        if_modified_since = cached.last_modified if cached is not None else None
        counts = self.counters.counts
        counts["polls"] += 1
        counts[reason.counter_name] += 1

        network = self._network
        if network.synchronous:
            # No round trip to model (Section 6.1.1): ask the upstream
            # directly; the answer is consumed at the same instant, so
            # no message is built.
            network.requests_sent += 1
            status, last_modified, version, value, history = server.respond(
                object_id, if_modified_since, self._want_history, now
            )
            self._complete_poll(
                object_id, entry, reason, now,
                status, last_modified, version, value, history,
            )
            return entry

        def on_response(response: Response) -> None:
            self._complete_poll(
                object_id, entry, reason, self._kernel.time,
                response.status, response.last_modified, response.version,
                response.value, response.modification_history,
            )

        # Positional, like every message on the poll path (see Request).
        request = Request(
            _GET, object_id, if_modified_since, self._want_history, now
        )
        network.exchange(request, server.handle_request, on_response)
        return entry

    def _complete_poll(
        self,
        object_id: ObjectId,
        entry: CacheEntry,
        reason: PollReason,
        now: Seconds,
        status: Status,
        last_modified: Optional[Seconds],
        version: Optional[int],
        value: Optional[float],
        history: Optional[List[Seconds]],
    ) -> None:
        cached = entry.snapshot
        modified = status is _OK
        if modified:
            assert version is not None and last_modified is not None
            if cached is not None and version < cached.version:
                # With jittered latency, two in-flight polls can complete
                # out of order: a response generated before a server
                # update can arrive after one generated afterwards.
                # Recording it would regress the cached version, breaking
                # the paper's Section 2 requirement that the proxy
                # version monotonically increases.  Treat the overtaken
                # response as a re-validation of the (newer) cached copy
                # — the 304 path — so the refresher still re-arms.
                self.counters.increment("stale_responses")
                modified = False
                snapshot = cached
            else:
                snapshot = ObjectSnapshot(object_id, version, last_modified, value)
        elif status is not _NOT_MODIFIED:
            raise ProtocolError(
                f"poll of {object_id!r} returned unexpected status {int(status)}"
            )
        elif cached is None:
            # A 304 for an empty cache entry is a protocol anomaly —
            # we never send IMS without a cached copy.
            raise UnknownObjectError(str(object_id), where="proxy cache (304)")
        else:
            snapshot = cached

        first_unseen: Optional[Seconds] = None
        updates_since: Optional[int] = None
        if modified and history is not None:
            updates_since = len(history)
            if history:
                first_unseen = history[0]

        # The entry's one writer, inline (a method would be a frame per
        # poll): fetch-log columns, snapshot and deduped modification
        # times.
        times = entry.fetch_times
        if times and now < times[-1]:
            raise ValueError(
                f"fetch at t={now} precedes previous fetch at "
                f"t={times[-1]} for {object_id!r}"
            )
        times.append(now)
        entry.fetch_snapshots.append(snapshot)
        entry.snapshot = snapshot
        seen = entry.modification_times
        when = snapshot.last_modified
        if not seen or when > seen[-1]:
            seen.append(when)
        refresher = self._refreshers.get(object_id)
        additional = (
            reason is _MUTUAL_TRIGGER
            and not self.triggered_polls_reschedule
        )
        if refresher is not None:
            if additional:
                refresher.on_triggered_poll(now)
            else:
                refresher.on_poll_complete(
                    now, modified, snapshot, first_unseen, updates_since
                )
        if modified:
            self.counters.counts["polls_modified"] += 1
        if self._observers:
            for observer in tuple(self._observers):
                observer.on_poll_complete(
                    object_id, now, modified, snapshot, first_unseen, updates_since
                )

    def __repr__(self) -> str:
        return (
            f"ProxyCache(objects={len(self._refreshers)}, "
            f"polls={self.counters.get('polls')})"
        )
