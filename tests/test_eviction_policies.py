"""Bounded (LRU) cache battery plus eviction × consistency properties.

Modeled on the theine/caffeine style of cache testing: one battery
drives a bounded cache through a bounded-Zipf workload and asserts the
invariants the proxy depends on — the capacity bound, the bookkeeping
identities, the never-evict-the-just-inserted-key rule, and bit-for-bit
determinism.

Hypothesis sections cover the eviction × consistency bridge: an
evict→refetch cycle must reset the poll history (the refetched entry's
fetch log starts at the refetch) and :func:`collect_eviction_impact`
must flag exactly the absence windows whose origin updates went
unserved for longer than Δ.  Random put/get/get_or_create/remove
programs pin each object's absence spans against a flat eviction-order
record the test keeps from the cache's observable membership, and the
collector is compared field-for-field with the flat-scan
implementation it replaced (kept here as the oracle).  TTL
classes are checked black-box through ``run_simulation``: a declared
class polls on its TTL, an undeclared one on the default, and with no
default the main policy stays (the ops-table ``get_ttl`` contract).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api.builder import run_simulation
from repro.api.config import (
    CacheConfig,
    LevelConfig,
    PolicyConfig,
    SimulationConfig,
    TopologyConfig,
    WorkloadConfig,
)
from repro.consistency.base import PassivePolicy
from repro.core.events import PollReason
from repro.core.types import ObjectId, Seconds
from repro.httpsim.network import Network
from repro.metrics.collector import EvictionImpact, collect_eviction_impact
from repro.proxy.cache import ObjectCache
from repro.proxy.entry import CacheEntry
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.sim.kernel import Kernel
from repro.traces.model import UpdateTrace, trace_from_times

def zipf_stream(
    *, keys: int, ops: int, exponent: float, seed: int
) -> List[str]:
    """A deterministic Zipf-distributed key stream."""
    rng = random.Random(seed)
    population = [f"k{i}" for i in range(keys)]
    weights = [1.0 / (rank + 1) ** exponent for rank in range(keys)]
    return rng.choices(population, weights=weights, k=ops)


def drive(
    cache: ObjectCache, stream: List[str]
) -> Tuple[int, List[Optional[ObjectId]]]:
    """Replay a key stream against a cache: get, insert on miss.

    Returns the hit count and the per-insert victim sequence (``None``
    when an insert fit without eviction).
    """
    hits = 0
    victims: List[Optional[ObjectId]] = []
    for key in stream:
        object_id = ObjectId(key)
        if cache.get(object_id) is not None:
            hits += 1
            continue
        evicted = cache.put(CacheEntry(object_id))
        victims.append(evicted.object_id if evicted is not None else None)
    return hits, victims


class TestLRUBattery:
    """A bounded-Zipf workload against a bounded cache: the invariants
    the proxy depends on."""

    CAPACITY = 8
    STREAM = dict(keys=64, ops=2000, exponent=1.1, seed=99)

    def test_capacity_never_exceeded(self):
        cache = ObjectCache(capacity=self.CAPACITY)
        for key in zipf_stream(**self.STREAM):
            object_id = ObjectId(key)
            if cache.get(object_id) is None:
                cache.put(CacheEntry(object_id))
            assert len(cache) <= self.CAPACITY

    def test_eviction_bookkeeping_identities(self):
        cache = ObjectCache(capacity=self.CAPACITY)
        _, victims = drive(cache, zipf_stream(**self.STREAM))
        evictions = [v for v in victims if v is not None]
        inserts = len(victims)
        spans = [
            cache.absences_of(ObjectId(f"k{i}"))
            for i in range(self.STREAM["keys"])
        ]
        assert cache.eviction_count == len(evictions)
        assert sum((len(times) + 1) // 2 for times in spans) == len(evictions)
        assert len(cache) == inserts - len(evictions)
        # Spans and refetch counter agree: a span is closed iff the
        # object re-entered the cache afterwards.
        closed = sum(len(times) // 2 for times in spans)
        assert cache.refetch_after_evict_count == closed
        for victim in evictions:
            assert cache.was_evicted(victim)

    def test_just_inserted_key_is_never_the_victim(self):
        cache = ObjectCache(capacity=self.CAPACITY)
        for key in zipf_stream(**self.STREAM):
            object_id = ObjectId(key)
            if cache.get(object_id) is not None:
                continue
            evicted = cache.put(CacheEntry(object_id))
            if evicted is not None:
                assert evicted.object_id != object_id
            assert object_id in cache

    def test_victim_sequence_deterministic_under_fixed_seed(self):
        stream = zipf_stream(**self.STREAM)
        runs = []
        for _ in range(2):
            cache = ObjectCache(capacity=self.CAPACITY)
            hits, victims = drive(cache, stream)
            runs.append((hits, victims))
        assert runs[0] == runs[1]

    def test_capacity_one_single_resident(self):
        cache = ObjectCache(capacity=1)
        a, b = ObjectId("a"), ObjectId("b")
        assert cache.put(CacheEntry(a)) is None
        evicted = cache.put(CacheEntry(b))
        assert evicted is not None and evicted.object_id == a
        assert list(cache) == [b]

    def test_remove_untracks_key(self):
        cache = ObjectCache(capacity=2)
        a, b, c = ObjectId("a"), ObjectId("b"), ObjectId("c")
        cache.put(CacheEntry(a))
        cache.put(CacheEntry(b))
        removed = cache.remove(a)
        assert removed is not None and removed.object_id == a
        # The freed slot absorbs the next insert without eviction, and
        # removal (unlike eviction) opens no absence window.
        assert cache.put(CacheEntry(c)) is None
        assert cache.eviction_count == 0
        assert not cache.was_evicted(a)


class _ManualClock:
    """A settable clock for driving absence-span timestamps."""

    def __init__(self) -> None:
        self.now: Seconds = 0.0

    def __call__(self) -> Seconds:
        return self.now


class _CacheHolder:
    """Duck-typed stand-in for a proxy: just enough for the collector."""

    def __init__(self, cache: ObjectCache) -> None:
        self.cache = cache


class TestEvictRefetchProperties:
    """Hypothesis: the evict→refetch cycle vs the staleness bound."""

    @given(
        polls_before=st.integers(min_value=1, max_value=8),
        evicted_at=st.floats(min_value=10.0, max_value=1e4),
        gap=st.floats(min_value=0.5, max_value=1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_refetch_resets_poll_history(self, polls_before, evicted_at, gap):
        """The refetched entry's fetch log starts at the refetch."""
        kernel = Kernel()
        server = OriginServer()
        a, b = ObjectId("a"), ObjectId("b")
        server.create_object(a)
        cache = ObjectCache(capacity=1)
        proxy = ProxyCache(kernel, Network(kernel), cache=cache)
        proxy.register_object(a, server, PassivePolicy())  # polls at t=0
        for i in range(1, polls_before):
            kernel.run(until=float(i))
            proxy.trigger_poll(a, reason=PollReason.TTR_EXPIRED)
        assert cache.get(a).poll_count == polls_before
        kernel.run(until=evicted_at)
        evicted = cache.put(CacheEntry(b))  # displaces a
        assert evicted is not None and evicted.object_id == a
        assert evicted.poll_count == polls_before  # history left with it
        kernel.run(until=evicted_at + gap)
        proxy.handle_client_request(a)  # the refetch, a miss
        refetched = cache.get(a, touch=False)
        assert refetched is not None
        assert list(refetched.fetch_times) == [evicted_at + gap]
        # Re-putting a into the full cache displaced b, opening b's own
        # (still-open) span; a's is closed by the refetch.
        assert cache.absences_of(a) == (
            pytest.approx(evicted_at),
            pytest.approx(evicted_at + gap),
        )
        assert len(cache.absences_of(b)) == 1
        assert cache.refetch_after_evict_count == 1

    @given(
        evicted_at=st.floats(min_value=100.0, max_value=1e4),
        gap=st.floats(min_value=1.0, max_value=1e4),
        # Strictly inside the window: it is (start, end], so an update
        # at the eviction instant itself belongs to the previous poll
        # interval, not the absence window.
        update_frac=st.floats(min_value=0.25, max_value=1.0),
        delta=st.floats(min_value=0.5, max_value=1e4),
    )
    @settings(max_examples=100, deadline=None)
    def test_violation_flagged_iff_update_unserved_longer_than_delta(
        self, evicted_at, gap, update_frac, delta
    ):
        """The collector's violation rule, checked against first principles.

        One update lands inside the absence window; the window closes
        with a refetch ``gap`` seconds after eviction.  The bound is
        violated iff the refetch came more than Δ after the update.
        """
        cache = ObjectCache(capacity=1)
        clock = _ManualClock()
        cache.bind_clock(clock)
        a, b = ObjectId("a"), ObjectId("b")
        cache.put(CacheEntry(a))
        clock.now = evicted_at
        cache.put(CacheEntry(b))
        refetched_at = evicted_at + gap
        clock.now = refetched_at
        cache.put(CacheEntry(a))

        update_time = evicted_at + update_frac * gap
        trace = trace_from_times(
            a, [update_time], end_time=refetched_at + 10.0
        )
        impact = collect_eviction_impact(
            _CacheHolder(cache), trace, delta  # type: ignore[arg-type]
        )
        assert impact.evictions == 1
        assert impact.refetches_after_evict == 1
        assert impact.absent_time == pytest.approx(gap)
        expected = refetched_at - update_time > delta
        assert impact.staleness_violations == (1 if expected else 0)

    @given(
        evicted_at=st.floats(min_value=100.0, max_value=1e4),
        horizon_gap=st.floats(min_value=1.0, max_value=1e4),
        delta=st.floats(min_value=0.5, max_value=1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_open_window_scored_at_the_horizon(
        self, evicted_at, horizon_gap, delta
    ):
        """Never-refetched objects clip their absence at the horizon."""
        cache = ObjectCache(capacity=1)
        clock = _ManualClock()
        cache.bind_clock(clock)
        a, b = ObjectId("a"), ObjectId("b")
        cache.put(CacheEntry(a))
        clock.now = evicted_at
        cache.put(CacheEntry(b))

        horizon = evicted_at + horizon_gap
        update_time = evicted_at + 0.5 * horizon_gap
        trace = trace_from_times(a, [update_time], end_time=horizon)
        impact = collect_eviction_impact(
            _CacheHolder(cache), trace, delta, horizon=horizon  # type: ignore[arg-type]
        )
        assert impact.refetches_after_evict == 0
        assert impact.absent_time == pytest.approx(horizon_gap)
        expected = horizon - update_time > delta
        assert impact.staleness_violations == (1 if expected else 0)


_KEYS = [ObjectId(f"k{i}") for i in range(6)]

#: A cache program: (operation, key index, clock advance) steps.  Zero
#: advances are common on purpose — same-instant evictions are where a
#: per-object order could silently diverge from eviction order.  At
#: least 20 steps, so evict → refetch → remove → reinsert of one key
#: (a closed span that must stay closed) is common too.
_programs = st.lists(
    st.tuples(
        st.sampled_from(("put", "get", "get_or_create", "remove")),
        st.integers(min_value=0, max_value=len(_KEYS) - 1),
        st.sampled_from((0.0, 0.0, 0.25, 1.0, 7.5)),
    ),
    min_size=20,
    max_size=120,
)


def _run_program(capacity: int, program) -> Tuple[ObjectCache, List[list]]:
    """Replay a program; also record every absence window, flat.

    Each window is ``[object_id, evicted_at, refetched_at or None]``, in
    eviction order.  The flat record is kept from what the cache shows from outside
    (which ids it holds before and after each step), not from its
    per-object spans, so it is an independent model of them.
    """
    cache = ObjectCache(capacity=capacity)
    clock = _ManualClock()
    cache.bind_clock(clock)
    windows: List[list] = []
    for operation, index, advance in program:
        clock.now += advance
        key = _KEYS[index]
        before = set(cache)
        if operation == "get":
            cache.get(key)
            continue
        if operation == "remove":
            cache.remove(key)
            continue
        if operation == "put":
            cache.put(CacheEntry(key))
        else:
            cache.get_or_create(key)
        if key not in before:
            for window in reversed(windows):
                if window[0] == key:
                    if window[2] is None:
                        window[2] = clock.now
                    break
        for victim in before - set(cache):
            windows.append([victim, clock.now, None])
    return cache, windows


def _flat_scan_impact(
    windows: List[list],
    trace: UpdateTrace,
    delta: Optional[Seconds],
    horizon: Optional[Seconds],
) -> EvictionImpact:
    """The collector as it was before the per-object index: the oracle.

    Filters the flat eviction-order record per object and decides a
    violation by scanning the whole trace — quadratic over a run,
    which is why it lives only here.
    """
    end = horizon if horizon is not None else trace.end_time
    evictions = refetches = violations = 0
    absent = 0.0
    for object_id, evicted_at, refetched_at in windows:
        if object_id != trace.object_id:
            continue
        evictions += 1
        if refetched_at is not None:
            refetches += 1
        close = refetched_at if refetched_at is not None else end
        absent += max(0.0, close - evicted_at)
        if delta is None:
            continue
        for update in trace.times:
            if evicted_at < update <= close and close - update > delta:
                violations += 1
                break
    return EvictionImpact(
        object_id=trace.object_id,
        evictions=evictions,
        refetches_after_evict=refetches,
        staleness_violations=violations,
        absent_time=absent,
    )


class TestWindowIndexProperties:
    """Hypothesis: per-object absence spans vs the flat window record."""

    @given(
        capacity=st.integers(min_value=1, max_value=4),
        program=_programs,
    )
    @settings(max_examples=200, deadline=None)
    def test_index_agrees_with_flat_view(self, capacity, program):
        cache, windows = _run_program(capacity, program)
        opened = closed = 0
        for key in _KEYS:
            spans = cache.absences_of(key)
            flat = [
                time
                for object_id, evicted_at, refetched_at in windows
                if object_id == key
                for time in (evicted_at, refetched_at)
                if time is not None
            ]
            assert list(spans) == flat
            assert cache.was_evicted(key) == bool(spans)
            # At most one open span, and only ever the newest: an
            # object must re-enter the cache before it can leave again.
            if len(spans) % 2:
                assert key not in cache
            opened += (len(spans) + 1) // 2
            closed += len(spans) // 2
        assert opened == cache.eviction_count == len(windows)
        assert closed == cache.refetch_after_evict_count

    @given(
        capacity=st.integers(min_value=1, max_value=4),
        program=_programs,
        delta=st.sampled_from((None, 0.0, 0.25, 5.0, 1e6)),
        horizon=st.one_of(st.none(), st.floats(min_value=0.0, max_value=400.0)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_collector_equals_flat_scan_oracle(
        self, capacity, program, delta, horizon, data
    ):
        """Field-for-field, ``absent_time`` bit-for-bit (same sum order).

        Updates are drawn from instants at and around the span edges,
        so both ends of ``(evicted, refetched]`` and "unserved for
        exactly Δ" occur; the horizon may fall before an open span's
        eviction (the clipped span is then zero).
        """
        cache, windows = _run_program(capacity, program)
        holder = _CacheHolder(cache)
        for key in _KEYS:
            candidates = sorted(
                {
                    max(0.0, edge + offset)
                    for edge in cache.absences_of(key)
                    for offset in (-5.0, -0.25, 0.0, 0.25)
                }
                | {0.0, 100.0}
            )
            times = data.draw(
                st.lists(st.sampled_from(candidates), unique=True).map(sorted)
            )
            trace = trace_from_times(key, times, end_time=500.0)
            impact = collect_eviction_impact(
                holder, trace, delta, horizon=horizon  # type: ignore[arg-type]
            )
            assert impact == _flat_scan_impact(windows, trace, delta, horizon)


class TestTTLClasses:
    """Black-box: per-class TTLs read off the poll counts of the rows.

    Main policy ``static_ttl`` at 900 s; object ``a`` is in the declared
    class ``fast`` (60 s), ``b`` in the undeclared class ``slow``, and
    ``c`` has no class (it is its own, undeclared, class).  Every object
    is fetched at t = 0 and then polled once per TTL up to the horizon.
    """

    HORIZON = 3590.0

    def _polls(self, **cache):
        from repro.api.builder import SimulationBuilder

        outcome = (
            SimulationBuilder()
            .workload("poisson", "a", "b", "c", rate_per_hour=2.0, hours=1.0)
            .policy("static_ttl", ttl=900.0)
            .cache(
                ttl_classes={"fast": 60.0},
                object_classes={"a": "fast", "b": "slow"},
                **cache,
            )
            .seed(5)
            .horizon(self.HORIZON)
            .run()
        )
        return {row["object"]: row["polls"] for row in outcome.results}

    def _expected(self, ttl):
        return 1 + int(self.HORIZON // ttl)

    def test_declared_class_polls_on_its_ttl(self):
        for default in ({}, {"default_ttl_s": 300.0}):
            assert self._polls(**default)["a"] == self._expected(60.0)

    def test_undeclared_class_polls_on_default(self):
        polls = self._polls(default_ttl_s=300.0)
        assert polls["b"] == polls["c"] == self._expected(300.0)

    def test_no_default_keeps_main_policy(self):
        polls = self._polls()
        assert polls["b"] == polls["c"] == self._expected(900.0)


class TestSerialVsWorkersByteIdentical:
    """A bounded LRU tree end to end, on a worker pool, under two
    ``PYTHONHASHSEED`` values.

    Which objects its caches evict must not move with the hash seed;
    sharded across a pool, the rows must also equal the serial run's.
    """

    CONFIG = SimulationConfig(
        workload=WorkloadConfig(
            objects=("cnn_fn", "nyt_ap", "nyt_reuters", "guardian")
        ),
        policy=PolicyConfig("limd", {"delta": 600.0, "ttr_max": 3600.0}),
        topology=TopologyConfig(
            kind="tree", levels=(LevelConfig(), LevelConfig(fan_out=3))
        ),
        cache=CacheConfig(capacity=2),
        fidelity_delta_s=600.0,
    )

    def test_bounded_tree_csv_is_identical(self, tmp_path):
        serial = run_simulation(self.CONFIG).results
        assert sum(serial.column("evictions")) > 0
        path = tmp_path / "bounded_tree.json"
        # Three shards: shard 0 runs in-process, 1 and 2 on the pool.
        path.write_text(replace(self.CONFIG, shards=3).to_json())
        source_root = str(Path(repro.__file__).resolve().parent.parent)
        for hash_seed in ("1", "4242"):
            sharded = subprocess.run(
                [sys.executable, "-m", "repro", "run", "--config", str(path),
                 "--csv", "--workers", "2"],
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": source_root,
                },
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert sharded.returncode == 0, sharded.stderr
            assert sharded.stdout == serial.to_csv(), hash_seed
