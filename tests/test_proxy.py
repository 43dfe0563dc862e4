"""Unit tests for the proxy cache, refresher, and client path."""

from __future__ import annotations

import gc
import os
import random
import sys
import tracemalloc
from collections import Counter
from itertools import count

import pytest

import repro
from repro.api.builder import SimulationBuilder, run_simulation
from repro.api.config import (
    GroupConfig,
    GroupsConfig,
    LevelConfig,
    NetworkConfig,
    PolicyConfig,
    SimulationConfig,
    SimulationConfigError,
    TopologyConfig,
    WorkloadConfig,
)
from repro.consistency.base import FixedTTRPolicy, PassivePolicy, RefreshPolicy
from repro.consistency.ttl import StaticTTLPolicy
from repro.core.errors import (
    CacheConfigurationError,
    ProtocolError,
    SimulationError,
    UnknownObjectError,
)
from repro.core.events import PollReason
from repro.core.types import ObjectId, ObjectSnapshot
from repro.httpsim.network import LatencyModel, Network
from repro.proxy.cache import ObjectCache
from repro.proxy.entry import CacheEntry
from repro.proxy.proxy import ProxyCache
from repro.proxy.refresher import Refresher
from repro.server.origin import OriginServer
from repro.server.updates import UpdateFeeder, feed_traces
from repro.sim.fastforward import FastForwardEngine
from repro.sim.kernel import Kernel
from repro.traces.model import trace_from_times


def build_stack(*, want_history=True, triggered_reschedule=False):
    kernel = Kernel()
    server = OriginServer()
    proxy = ProxyCache(
        kernel,
        Network(kernel),
        want_history=want_history,
        triggered_polls_reschedule=triggered_reschedule,
    )
    return kernel, server, proxy


class _SteppingBackKernel(Kernel):
    """A fake clock: ``time`` reads whatever the test last set."""

    __slots__ = ("clock",)

    @property
    def time(self):
        return self.clock

    @time.setter
    def time(self, value):
        self.clock = value


class TestCacheEntry:
    """A poll's bookkeeping, written by ``ProxyCache._complete_poll``."""

    def _poll_every_ten_seconds(self):
        kernel, server, proxy = build_stack()
        server.create_object(ObjectId("x"), created_at=5.0)
        proxy.register_object(ObjectId("x"), server, FixedTTRPolicy(ttr=10.0))
        return kernel, server, proxy

    def test_polls_update_snapshot(self):
        kernel, server, proxy = self._poll_every_ten_seconds()
        entry = proxy.entry_for(ObjectId("x"))
        assert entry.populated
        assert entry.snapshot == ObjectSnapshot(ObjectId("x"), 0, 5.0)
        assert entry.poll_count == 1
        assert entry.last_poll_time == 0.0
        kernel.schedule_at(12.0, lambda k: server.apply_update(ObjectId("x"), 12.0))
        kernel.run(until=20.0)
        assert entry.snapshot == ObjectSnapshot(ObjectId("x"), 1, 12.0)
        assert entry.poll_count == 3
        assert entry.last_poll_time == 20.0
        assert list(zip(entry.fetch_times, entry.fetch_modified)) == [
            (0.0, True),
            (10.0, False),
            (20.0, True),
        ]
        assert proxy.counters.get("polls_initial_fetch") == 1
        assert proxy.counters.get("polls_ttr_expired") == 2

    def test_fetches_must_be_time_ordered(self):
        kernel = _SteppingBackKernel()
        kernel.clock = 10.0
        server = OriginServer()
        server.create_object(ObjectId("x"))
        proxy = ProxyCache(kernel, Network(kernel))
        proxy.register_object(ObjectId("x"), server, PassivePolicy())
        kernel.clock = 9.0
        with pytest.raises(ValueError, match="precedes previous fetch"):
            proxy.trigger_poll(ObjectId("x"), reason=PollReason.TTR_EXPIRED)
        assert proxy.entry_for(ObjectId("x")).poll_count == 1

    def test_known_modification_times_dedupes_304_revalidations(self):
        kernel, server, proxy = self._poll_every_ten_seconds()
        kernel.schedule_at(25.0, lambda k: server.apply_update(ObjectId("x"), 25.0))
        # The 304s at t=10 and t=20 re-validate the t=5 snapshot, and the
        # one at t=40 the t=25 one.
        kernel.run(until=40.0)
        entry = proxy.entry_for(ObjectId("x"))
        assert entry.fetch_modified == [True, False, False, True, False]
        assert entry.modification_times == [5.0, 25.0]

    def test_known_modification_times_empty_before_fetches(self):
        entry = CacheEntry(ObjectId("x"))
        assert entry.modification_times == []


class TestObjectCache:
    def test_unbounded_by_default(self):
        cache = ObjectCache()
        for i in range(1000):
            cache.put(CacheEntry(ObjectId(f"o{i}")))
        assert len(cache) == 1000
        assert cache.eviction_count == 0

    def test_lru_evicts_least_recently_used(self):
        cache = ObjectCache(capacity=2)
        cache.put(CacheEntry(ObjectId("a")))
        cache.put(CacheEntry(ObjectId("b")))
        cache.get(ObjectId("a"))  # touch a → b is LRU
        evicted = cache.put(CacheEntry(ObjectId("c")))
        assert evicted is not None and evicted.object_id == ObjectId("b")
        assert ObjectId("a") in cache and ObjectId("c") in cache

    def test_eviction_other_than_lru_rejected(self):
        assert ObjectCache(capacity=2, eviction="lru").capacity == 2
        for name in ("lfu", "fifo"):
            with pytest.raises(CacheConfigurationError, match=name):
                ObjectCache(capacity=2, eviction=name)
            with pytest.raises(SimulationConfigError, match=name):
                SimulationBuilder().cache(2, eviction=name)

    def test_get_or_create(self):
        cache = ObjectCache()
        entry = cache.get_or_create(ObjectId("x"))
        assert cache.get_or_create(ObjectId("x")) is entry

    def test_remove(self):
        cache = ObjectCache()
        cache.put(CacheEntry(ObjectId("x")))
        removed = cache.remove(ObjectId("x"))
        assert removed is not None
        assert cache.remove(ObjectId("x")) is None

    def test_put_same_id_replaces_without_eviction(self):
        cache = ObjectCache(capacity=1)
        cache.put(CacheEntry(ObjectId("x")))
        assert cache.put(CacheEntry(ObjectId("x"))) is None
        assert cache.eviction_count == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(CacheConfigurationError):
            ObjectCache(capacity=0)


class TestClientMissEvictedByNestedPoll:
    """A client miss whose entry a same-instant nested poll evicts.

    Capacity 1: the miss on ``a`` evicts ``b``; when ``a``'s poll
    completes an observer polls ``b`` at once, which evicts ``a`` before
    the client call returns.  The client still gets the snapshot its
    miss fetched, and the cache records both evictions.
    """

    def test_client_gets_the_fetched_snapshot(self):
        kernel = Kernel()
        origin = OriginServer()
        a, b = ObjectId("a"), ObjectId("b")
        feed_traces(
            kernel,
            origin,
            [
                trace_from_times(a, [3.0], end_time=10.0),
                trace_from_times(b, [], end_time=10.0),
            ],
        )
        cache = ObjectCache(capacity=1)
        proxy = ProxyCache(kernel, Network(kernel), cache=cache)
        proxy.register_object(b, origin, StaticTTLPolicy(600.0))
        proxy.bind_server(a, origin)

        class PollPartnerOnA:
            def on_poll_complete(self, object_id, *outcome):
                if object_id == a:
                    proxy.trigger_poll(b, reason=PollReason.MUTUAL_TRIGGER)

        proxy.add_observer(PollPartnerOnA())
        kernel.run(until=5.0)
        snapshot = proxy.handle_client_request(a)
        assert snapshot == ObjectSnapshot(a, version=1, last_modified=3.0)
        assert proxy.counters.get("client_misses") == 1
        assert a not in cache and b in cache
        assert cache.was_evicted(a)
        assert cache.eviction_count == 2


class TestProxyPolling:
    def test_registration_does_initial_fetch(self):
        kernel, server, proxy = build_stack()
        server.create_object(ObjectId("x"), created_at=0.0)
        proxy.register_object(ObjectId("x"), server, FixedTTRPolicy(ttr=10.0))
        entry = proxy.entry_for(ObjectId("x"))
        assert entry.populated
        assert entry.snapshot.version == 0
        assert proxy.counters.get("polls") == 1

    def test_ttr_driven_refresh_sees_updates(self):
        kernel, server, proxy = build_stack()
        trace = trace_from_times(ObjectId("x"), [15.0], end_time=100.0)
        UpdateFeeder(kernel, server, trace)
        proxy.register_object(ObjectId("x"), server, FixedTTRPolicy(ttr=10.0))
        kernel.run(until=100.0)
        entry = proxy.entry_for(ObjectId("x"))
        assert entry.snapshot.version == 1
        # Initial fetch + polls at 10,20,...,100.
        assert entry.poll_count == 11

    def test_304_keeps_snapshot(self):
        kernel, server, proxy = build_stack()
        server.create_object(ObjectId("x"), created_at=0.0)
        proxy.register_object(ObjectId("x"), server, FixedTTRPolicy(ttr=10.0))
        kernel.run(until=30.0)
        entry = proxy.entry_for(ObjectId("x"))
        assert entry.snapshot.version == 0
        assert not any(entry.fetch_modified[1:])

    def test_poll_outcome_history_fields(self):
        kernel, server, proxy = build_stack(want_history=True)
        trace = trace_from_times(ObjectId("x"), [3.0, 5.0, 7.0], end_time=100.0)
        UpdateFeeder(kernel, server, trace)
        seen = []

        class Observer:
            def on_poll_complete(self, object_id, *outcome):
                seen.append(outcome)

        proxy.add_observer(Observer())
        proxy.register_object(ObjectId("x"), server, FixedTTRPolicy(ttr=10.0))
        kernel.run(until=10.0)
        # Each poll: (now, modified, snapshot, first_unseen, updates_since).
        modified = [o for o in seen if o[1] and o[0] == 10.0]
        assert len(modified) == 1
        assert modified[0][3] == 3.0
        assert modified[0][4] == 3

    def test_no_history_when_disabled(self):
        kernel, server, proxy = build_stack(want_history=False)
        trace = trace_from_times(ObjectId("x"), [3.0], end_time=100.0)
        UpdateFeeder(kernel, server, trace)
        seen = []

        class Observer:
            def on_poll_complete(self, object_id, *outcome):
                seen.append(outcome)

        proxy.add_observer(Observer())
        proxy.register_object(ObjectId("x"), server, FixedTTRPolicy(ttr=10.0))
        kernel.run(until=10.0)
        modified = [o for o in seen if o[1] and o[0] > 0]
        assert modified and modified[0][3] is None

    def test_duplicate_registration_rejected(self):
        kernel, server, proxy = build_stack()
        server.create_object(ObjectId("x"))
        proxy.register_object(ObjectId("x"), server, FixedTTRPolicy(ttr=10.0))
        with pytest.raises(CacheConfigurationError):
            proxy.register_object(ObjectId("x"), server, FixedTTRPolicy(ttr=10.0))

    def test_poll_answered_404_is_a_protocol_error(self):
        kernel, server, proxy = build_stack()
        with pytest.raises(ProtocolError, match="unexpected status 404"):
            proxy.register_object(ObjectId("x"), server, FixedTTRPolicy(ttr=10.0))

    def test_passive_policy_never_schedules(self):
        kernel, server, proxy = build_stack()
        server.create_object(ObjectId("x"))
        proxy.register_object(ObjectId("x"), server, PassivePolicy())
        kernel.run(until=1000.0)
        assert proxy.entry_for(ObjectId("x")).poll_count == 1

    def test_poll_events_logged_with_ttr(self):
        # What a run records is the fetch log; what it lets you watch
        # is the poll-observer seam, which fires after the policy has
        # consumed the poll (so it sees the TTR chosen *from* it).
        kernel, server, proxy = build_stack()
        policy = FixedTTRPolicy(ttr=10.0)
        watched = []

        class Watcher:
            def on_poll_complete(self, object_id, now, *outcome):
                watched.append((object_id, now, policy.current_ttr))

        proxy.add_observer(Watcher())
        server.create_object(ObjectId("x"))
        proxy.register_object(ObjectId("x"), server, policy)
        kernel.run(until=25.0)
        entry = proxy.entry_for(ObjectId("x"))
        assert list(zip(entry.fetch_times, entry.fetch_modified)) == [
            (0.0, True),
            (10.0, False),
            (20.0, False),
        ]
        assert proxy.counters.get("polls_initial_fetch") == 1
        assert proxy.counters.get("polls_ttr_expired") == 2
        assert watched == [
            (ObjectId("x"), 0.0, 10.0),
            (ObjectId("x"), 10.0, 10.0),
            (ObjectId("x"), 20.0, 10.0),
        ]


class _ScriptedPolicy(RefreshPolicy):
    """``first_ttr`` is ``first``; ``next_ttr`` answers the initial fetch
    with ``first`` too, and every later poll with ``later``."""

    name = "scripted"

    def __init__(self, first, later):
        self.first = first
        self._later = later
        self._current = first

    def first_ttr(self):
        return self.first

    def next_ttr(self, *outcome):
        ttr, self._current = self._current, self._later
        return ttr

    @property
    def current_ttr(self):
        return self._current


class TestInvalidTTR:
    """A TTR that is not a number > 0 fails fast, naming the object and
    the policy, instead of silently stopping the object's polling (NaN),
    livelocking the kernel at one instant (0) or surfacing as a bare
    ``TypeError`` from the arming comparison (``None``, a string)."""

    BAD = [float("nan"), 0.0, -5.0, float("-inf"), None, "5"]

    @pytest.mark.parametrize("ttr", BAD)
    def test_bad_first_ttr_rejected_at_registration(self, ttr):
        kernel, server, proxy = build_stack()
        server.create_object(ObjectId("x"))
        with pytest.raises(SimulationError) as raised:
            proxy.register_object(
                ObjectId("x"), server, _ScriptedPolicy(ttr, 10.0)
            )
        message = str(raised.value)
        assert "'x'" in message and "'scripted'" in message
        assert repr(ttr) in message

    @pytest.mark.parametrize("ttr", BAD)
    def test_bad_next_ttr_rejected_at_the_poll(self, ttr):
        kernel, server, proxy = build_stack()
        server.create_object(ObjectId("x"))
        proxy.register_object(ObjectId("x"), server, _ScriptedPolicy(10.0, ttr))
        with pytest.raises(SimulationError, match="'scripted'"):
            kernel.run(until=100.0, max_events=1000)
        assert kernel.now() == 10.0
        assert proxy.counters.get("polls") == 2

    @pytest.mark.parametrize("ttr", BAD)
    def test_bad_next_ttr_rejected_while_detached(self, ttr):
        kernel, server, proxy = build_stack()
        server.create_object(ObjectId("x"))
        proxy.register_object(ObjectId("x"), server, _ScriptedPolicy(10.0, ttr))
        engine = FastForwardEngine(kernel, [proxy])
        try:
            with pytest.raises(SimulationError, match="'scripted'"):
                engine.run(100.0)
        finally:
            engine.close()
        assert proxy.counters.get("polls") == 2

    def test_bad_first_ttr_rejected_on_recovery(self):
        kernel, server, proxy = build_stack()
        server.create_object(ObjectId("x"))
        policy = _ScriptedPolicy(10.0, 10.0)
        proxy.register_object(ObjectId("x"), server, policy)
        policy.first = 0.0
        with pytest.raises(SimulationError):
            proxy.recover_from_failure()

    def test_infinite_ttr_still_means_unarmed(self):
        kernel, server, proxy = build_stack()
        server.create_object(ObjectId("x"))
        refresher = proxy.register_object(
            ObjectId("x"), server, _ScriptedPolicy(10.0, float("inf"))
        )
        kernel.run(until=100.0)
        assert proxy.counters.get("polls") == 2
        assert refresher.next_poll_time is None


class TestRefresherIsItsOwnTimer:
    """One frame per layer: kernel -> issuer on expiry, with no
    Refresher frame between, and on_poll_complete -> schedule_raw on the
    re-arm."""

    def test_expiry_and_rearm_frame_chains(self):
        chains = []

        def callers(depth):
            frame = sys._getframe(2)
            names = []
            for _ in range(depth):
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            return names

        class SpyKernel(Kernel):
            __slots__ = ()

            def schedule_raw(self, when, callback, label=""):
                chains.append(("arm", callers(2)))
                return super().schedule_raw(when, callback, label)

        def issue(object_id, reason, kernel=None):
            chains.append((reason, callers(2)))

        kernel = SpyKernel()
        refresher = Refresher(kernel, ObjectId("x"), FixedTTRPolicy(ttr=10.0), issue)
        refresher.start()
        kernel.run(until=10.0)
        snapshot = ObjectSnapshot(ObjectId("x"), version=0, last_modified=0.0)
        refresher.on_poll_complete(10.0, False, snapshot, None, None)
        assert chains == [
            ("arm", ["arm_at", "start"]),
            (PollReason.TTR_EXPIRED, ["_drain", "run"]),
            ("arm", ["on_poll_complete", "test_expiry_and_rearm_frame_chains"]),
        ]
        assert refresher.next_poll_time == 20.0


class TestPollFrames:
    """The Python frames one TTR poll enters, pinned by qualified name.

    A child polls its parent proxy over a synchronous link under
    ``static_ttl``; the parent's own TTL outlasts the run, so every
    frame counted belongs to a child poll (each a 304).  Counted with
    ``sys.setprofile``, as ``tests/test_sim_kernel.py::TestDispatchFrames``
    counts dispatch; ``run`` and ``_drain`` are entered once per run.
    Only frames whose code lives in the ``repro`` package count, so a
    garbage-collector callback another library installed (Hypothesis
    times its collections) cannot add a frame.
    """

    POLLS = 100
    FRAMES = {
        "ProxyCache._issue_poll",
        "ProxyCache.respond",
        "answer_conditional_get",
        "ProxyCache._complete_poll",
        "Refresher.on_poll_complete",
        "StaticTTLPolicy.next_ttr",
        "Kernel.schedule_raw",
    }

    def test_a_child_poll_enters_seven_frames(self):
        kernel = Kernel()
        origin = OriginServer()
        origin.create_object(ObjectId("x"))
        parent = ProxyCache(kernel, Network(kernel), name="parent")
        parent.register_object(ObjectId("x"), origin, StaticTTLPolicy(ttl=1e6))
        child = ProxyCache(kernel, Network(kernel), name="child")
        child.register_object(ObjectId("x"), parent, StaticTTLPolicy(ttl=10.0))
        frames = Counter()
        package = os.path.dirname(repro.__file__) + os.sep

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                frames[frame.f_code.co_qualname] += 1

        sys.setprofile(profiler)
        try:
            kernel.run(until=10.0 * self.POLLS)
        finally:
            sys.setprofile(None)
        assert child.counters.get("polls") == 1 + self.POLLS
        assert frames.pop("Kernel.run") + frames.pop("Kernel._drain") == 2
        assert "CacheEntry.record_fetch" not in frames
        assert "OneShotTimer.arm_at" not in frames
        assert "FetchRecord.__init__" not in frames
        # No outcome record, no clock call, no refresher frame on expiry.
        assert "PollOutcome.__init__" not in frames
        assert "Kernel.now" not in frames
        assert "Refresher._fire" not in frames
        assert set(frames) == self.FRAMES
        assert sum(frames.values()) <= 7 * self.POLLS


class TestRetention:
    """No poll and no repeat eviction leaves a GC-tracked object behind.

    The fetch log is per-entry columns and a cache's absence spans are
    per-object lists of floats, so once a run is in steady state the
    number of objects the collector tracks stays flat however many
    polls or evictions follow.
    """

    SLACK = 64

    @staticmethod
    def _tracked_after(kernel, until):
        kernel.run(until=until)
        gc.collect()
        return len(gc.get_objects())

    def test_polls_retain_no_tracked_objects(self):
        kernel = Kernel()
        origin = OriginServer()
        origin.create_object(ObjectId("x"))
        parent = ProxyCache(kernel, Network(kernel), name="parent")
        parent.register_object(ObjectId("x"), origin, StaticTTLPolicy(ttl=10.0))
        children = []
        for index in range(4):
            child = ProxyCache(kernel, Network(kernel), name=f"child{index}")
            child.register_object(ObjectId("x"), parent, StaticTTLPolicy(ttl=5.0))
            children.append(child)
        before = self._tracked_after(kernel, 100.0)
        polls = sum(child.counters.get("polls") for child in children)
        after = self._tracked_after(kernel, 10_100.0)
        polls = sum(child.counters.get("polls") for child in children) - polls
        assert polls >= 8000
        assert after - before <= self.SLACK

    def test_repeat_evictions_retain_no_tracked_objects(self):
        kernel = Kernel()
        origin = OriginServer()
        objects = [ObjectId(f"o{i}") for i in range(4)]
        cache = ObjectCache(capacity=2)
        proxy = ProxyCache(kernel, Network(kernel), cache=cache)
        for object_id in objects:
            origin.create_object(object_id)
            proxy.bind_server(object_id, origin)
        step = count()

        def request(k):
            proxy.handle_client_request(objects[next(step) % len(objects)])
            k.schedule_at(k.now() + 1.0, request)

        kernel.schedule_at(0.0, request)
        before = self._tracked_after(kernel, 100.5)
        assert all(cache.was_evicted(object_id) for object_id in objects)
        evictions = cache.eviction_count
        after = self._tracked_after(kernel, 5_100.5)
        assert cache.eviction_count - evictions >= 4000
        assert after - before <= self.SLACK

    def test_a_revalidation_retains_one_float_and_one_pointer(self):
        # A 304 appends the poll time and the cached snapshot and
        # nothing else: ~17 B a poll with list/array over-allocation.
        kernel = Kernel()
        origin = OriginServer()
        origin.create_object(ObjectId("x"))
        proxy = ProxyCache(kernel, Network(kernel))
        proxy.register_object(ObjectId("x"), origin, StaticTTLPolicy(ttl=1.0))
        kernel.run(until=10.5)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            polls = proxy.counters.get("polls")
            kernel.run(until=10_010.5)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert proxy.counters.get("polls") - polls == 10_000
        assert proxy.counters.get("polls_modified") == 1
        assert retained <= 24 * 10_000


class TestDerivedModifiedColumn:
    """``fetch_modified`` is read off the snapshot column by identity;
    on generated latent, jittered trees it must agree with the
    ``polls_modified`` counter the poll path bumps, overtaken 200s
    included."""

    @staticmethod
    def _config(seed):
        rng = random.Random(seed)
        objects = tuple(f"o{i}" for i in range(rng.randint(2, 4)))

        def network():
            one_way = rng.uniform(5.0, 60.0)
            jitter = rng.uniform(0.5, 1.0) * one_way
            return NetworkConfig(one_way_latency_s=one_way, jitter_s=jitter)

        policy = rng.choice(
            [
                PolicyConfig("static_ttl", {"ttl": rng.uniform(30.0, 300.0)}),
                PolicyConfig("limd", {"delta": rng.uniform(60.0, 600.0)}),
            ]
        )
        # Triggered partner polls overlap scheduled ones, so responses
        # can arrive out of order.
        groups = GroupsConfig(groups=(GroupConfig("g", objects[:2], 30.0),))
        return SimulationConfig(
            workload=WorkloadConfig(
                source="poisson",
                objects=objects,
                params={"rate_per_hour": rng.uniform(30.0, 120.0), "hours": 2.0},
            ),
            topology=TopologyConfig(
                kind="tree",
                levels=(
                    LevelConfig(fan_out=1, network=network()),
                    LevelConfig(fan_out=rng.randint(1, 3), network=network()),
                ),
            ),
            policy=policy,
            groups=groups,
            seed=seed,
        )

    def test_modified_rows_equal_the_modified_poll_count(self):
        stale = 0
        for seed in range(12):
            outcome = run_simulation(self._config(seed))
            assert outcome.tree is not None
            for node in outcome.tree.nodes:
                proxy = node.proxy
                modified = sum(
                    sum(proxy.entry_for(object_id).fetch_modified)
                    for object_id in proxy.registered_objects()
                )
                assert modified == proxy.counters.get("polls_modified"), (
                    seed,
                    node.name,
                )
                stale += proxy.counters.get("stale_responses")
        assert stale > 0


class TestTriggeredPolls:
    def _setup(self, reschedule):
        kernel, server, proxy = build_stack(triggered_reschedule=reschedule)
        server.create_object(ObjectId("x"), created_at=0.0)
        refresher = proxy.register_object(
            ObjectId("x"), server, FixedTTRPolicy(ttr=10.0)
        )
        return kernel, proxy, refresher

    def test_additional_mode_keeps_schedule(self):
        kernel, proxy, refresher = self._setup(reschedule=False)
        kernel.schedule_at(
            5.0,
            lambda k: proxy.trigger_poll(
                ObjectId("x"), reason=PollReason.MUTUAL_TRIGGER
            ),
        )
        kernel.run(until=12.0)
        entry = proxy.entry_for(ObjectId("x"))
        # initial(0) + trigger(5) + scheduled(10): schedule unchanged.
        assert list(entry.fetch_times) == [0.0, 5.0, 10.0]

    def test_reschedule_mode_shifts_schedule(self):
        kernel, proxy, refresher = self._setup(reschedule=True)
        kernel.schedule_at(
            5.0,
            lambda k: proxy.trigger_poll(
                ObjectId("x"), reason=PollReason.MUTUAL_TRIGGER
            ),
        )
        kernel.run(until=16.0)
        entry = proxy.entry_for(ObjectId("x"))
        # initial(0) + trigger(5) + next at 15 (5+10).
        assert list(entry.fetch_times) == [0.0, 5.0, 15.0]

    def test_triggered_poll_updates_last_poll_time(self):
        kernel, proxy, refresher = self._setup(reschedule=False)
        kernel.schedule_at(
            5.0,
            lambda k: proxy.trigger_poll(
                ObjectId("x"), reason=PollReason.MUTUAL_TRIGGER
            ),
        )
        kernel.run(until=6.0)
        assert refresher.last_poll_time == 5.0


class TestClientPath:
    def test_hit_serves_cached_snapshot(self):
        kernel, server, proxy = build_stack()
        server.create_object(ObjectId("x"), created_at=0.0)
        proxy.register_object(ObjectId("x"), server, FixedTTRPolicy(ttr=10.0))
        polls = proxy.counters.get("polls")
        snapshot = proxy.handle_client_request(ObjectId("x"))
        assert snapshot.version == 0
        assert proxy.counters.get("client_hits") == 1
        assert proxy.counters.get("client_misses") == 0
        assert proxy.counters.get("polls") == polls

    def test_miss_fetches_and_populates(self):
        kernel, server, proxy = build_stack()
        server.create_object(ObjectId("x"), created_at=0.0)
        proxy.bind_server(ObjectId("x"), server)
        snapshot = proxy.handle_client_request(ObjectId("x"))
        assert snapshot.version == 0
        assert proxy.counters.get("client_misses") == 1
        assert server.counters.get("requests") == 1
        # Second request hits.
        assert proxy.handle_client_request(ObjectId("x")) is snapshot
        assert proxy.counters.get("client_hits") == 1
        assert server.counters.get("requests") == 1

    def test_request_for_unbound_object_rejected(self):
        kernel, server, proxy = build_stack()
        with pytest.raises(UnknownObjectError):
            proxy.handle_client_request(ObjectId("nope"))

    def test_versions_served_monotonic(self):
        """Section 2: versions served to clients never go backwards."""
        kernel, server, proxy = build_stack()
        trace = trace_from_times(
            ObjectId("x"), [5.0, 15.0, 25.0], end_time=100.0
        )
        UpdateFeeder(kernel, server, trace)
        proxy.register_object(ObjectId("x"), server, FixedTTRPolicy(ttr=10.0))
        versions = []
        for t in range(0, 60, 3):
            kernel.schedule_at(
                float(t),
                lambda k: versions.append(
                    proxy.handle_client_request(ObjectId("x")).version
                ),
            )
        kernel.run(until=100.0)
        assert len(versions) == 20
        assert versions == sorted(versions)
        assert versions[-1] == 3


class TestLatencyIntegration:
    def test_polls_complete_after_round_trip(self):
        kernel = Kernel()
        server = OriginServer()
        proxy = ProxyCache(kernel, Network(kernel, LatencyModel(one_way=1.0)))
        server.create_object(ObjectId("x"), created_at=0.0)
        proxy.register_object(ObjectId("x"), server, FixedTTRPolicy(ttr=10.0))
        # The initial fetch is in flight; entry exists but is empty.
        assert not proxy.entry_for(ObjectId("x")).populated
        kernel.run(until=3.0)
        assert proxy.entry_for(ObjectId("x")).populated
        # Fetch completed at t=2 (1s each way).
        assert proxy.entry_for(ObjectId("x")).last_poll_time == 2.0

    def test_client_miss_over_a_latent_link_names_the_link(self):
        """A miss over a latent link is a fetch in flight, not a 404: the
        error names the object, the proxy and the link, and the answer
        still lands a round trip later.  A synchronous upstream that
        really answers 404 still fails inside the poll."""
        kernel = Kernel()
        server = OriginServer()
        server.create_object(ObjectId("x"), created_at=0.0)
        latent = ProxyCache(
            kernel, Network(kernel, LatencyModel(one_way=1.0)), name="edge"
        )
        latent.bind_server(ObjectId("x"), server)
        with pytest.raises(
            SimulationError, match=r"'x' missed at edge.*latent \(one_way=1\.0 s"
        ) as caught:
            latent.handle_client_request(ObjectId("x"))
        assert not isinstance(caught.value, UnknownObjectError)
        kernel.run()
        assert latent.entry_for(ObjectId("x")).snapshot.version == 0

        synchronous = ProxyCache(kernel, Network(kernel))
        synchronous.bind_server(ObjectId("absent"), server)
        with pytest.raises(ProtocolError, match="'absent' returned .* 404"):
            synchronous.handle_client_request(ObjectId("absent"))


class TestOutOfOrderResponses:
    """Jittered latency can deliver poll responses out of order; the
    cached version must never regress (paper Section 2: P_t increases
    monotonically)."""

    class _ScriptedRandom:
        """random.Random stand-in returning scripted uniform() samples."""

        def __init__(self, values):
            self._values = iter(values)

        def uniform(self, _a, _b):
            return next(self._values)

    def test_overtaken_response_does_not_regress_version(self):
        kernel = Kernel()
        server = OriginServer()
        X = ObjectId("x")
        server.create_object(X, created_at=0.0)
        # Poll A at t=50: forward +4 (→9 s, server at 59), back −4 (→1 s,
        # arrives 60).  Poll B at t=50.5: forward −4 (→1 s, server at
        # 51.5), back +4 (→9 s, arrives 60.5).  The server updates at 55,
        # so A carries v1 and the later-arriving B carries v0.
        net = Network(
            kernel,
            LatencyModel(one_way=5.0, jitter=4.0),
            rng=self._ScriptedRandom([4.0, -4.0, 4.0, -4.0]),
        )
        proxy = ProxyCache(kernel, net)
        proxy.register_object(
            X, server, FixedTTRPolicy(ttr=1000.0), initial_fetch=False
        )
        kernel.schedule_at(55.0, lambda k: server.apply_update(X, 55.0))
        for when in (50.0, 50.5):
            kernel.schedule_at(
                when,
                lambda k: proxy.trigger_poll(
                    X, reason=PollReason.MUTUAL_TRIGGER
                ),
            )
        kernel.run(until=200.0)

        snapshot = proxy.entry_for(X).snapshot
        assert snapshot is not None and snapshot.version == 1
        assert proxy.counters.get("stale_responses") == 1
        versions = [
            snapshot.version for snapshot in proxy.entry_for(X).fetch_snapshots
        ]
        assert versions == sorted(versions)

    def test_stale_response_counts_as_revalidation(self):
        kernel = Kernel()
        server = OriginServer()
        X = ObjectId("x")
        server.create_object(X, created_at=0.0)
        net = Network(
            kernel,
            LatencyModel(one_way=5.0, jitter=4.0),
            rng=self._ScriptedRandom([4.0, -4.0, 4.0, -4.0]),
        )
        proxy = ProxyCache(kernel, net)
        proxy.register_object(
            X, server, FixedTTRPolicy(ttr=1000.0), initial_fetch=False
        )
        kernel.schedule_at(55.0, lambda k: server.apply_update(X, 55.0))
        for when in (50.0, 50.5):
            kernel.schedule_at(
                when,
                lambda k: proxy.trigger_poll(
                    X, reason=PollReason.MUTUAL_TRIGGER
                ),
            )
        kernel.run(until=200.0)
        # The overtaken response is recorded as a non-modified fetch of
        # the (newer) cached copy — the 304 semantics.
        assert proxy.entry_for(X).fetch_modified == [True, False]
