"""Cross-policy eviction battery plus eviction × consistency properties.

Modeled on the theine/caffeine style of cache testing: one parametrized
battery drives every registered eviction policy (``lru``, ``lfu``,
``tinylfu``, ``clockpro``) through the same bounded-Zipf workload and
asserts the invariants the proxy depends on — the capacity bound, the
bookkeeping identities, the never-evict-the-just-inserted-key rule, and
bit-for-bit determinism.  Policy-specific sections pin the LFU
insertion-order tie-break (regression for the old accidental recency
tie-break) and TinyLFU's admission advantage on skewed workloads.

Hypothesis sections cover the eviction × consistency bridge: an
evict→refetch cycle must reset the poll history (the refetched entry
starts with an empty fetch log) and :func:`collect_eviction_impact`
must flag exactly the absence windows whose origin updates went
unserved for longer than Δ.  Random put/get/get_or_create/remove
programs pin the per-object window index against the flat
``eviction_windows`` view, the collector is compared field-for-field
with the flat-scan implementation it replaced (kept here as the
oracle), and a structural pin keeps row scoring off the flat view.  TTL
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
from repro.core.errors import CacheConfigurationError
from repro.core.events import PollReason
from repro.core.types import ObjectId, ObjectSnapshot, Seconds
from repro.httpsim.network import Network
from repro.metrics.collector import (
    OBJECT_ROW_COLUMNS,
    EvictionImpact,
    append_object_rows,
    collect_eviction_impact,
)
from repro.proxy.cache import ObjectCache
from repro.proxy.entry import CacheEntry
from repro.proxy.eviction import EVICTION_POLICIES, build_eviction_policy
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.server.updates import feed_traces
from repro.sim.kernel import Kernel
from repro.traces.model import UpdateTrace, trace_from_times

POLICIES = ("lru", "lfu", "tinylfu", "clockpro")


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


class TestRegistry:
    def test_all_four_policies_registered(self):
        for name in POLICIES:
            assert name in EVICTION_POLICIES

    def test_build_rejects_nonpositive_capacity(self):
        with pytest.raises(CacheConfigurationError):
            build_eviction_policy("lru", 0)

    def test_build_rejects_unknown_name(self):
        with pytest.raises(CacheConfigurationError):
            build_eviction_policy("fifo", 4)


@pytest.mark.parametrize("policy", POLICIES)
class TestCrossPolicyBattery:
    """Every policy, same bounded-Zipf workload, same invariants."""

    CAPACITY = 8
    STREAM = dict(keys=64, ops=2000, exponent=1.1, seed=99)

    def test_capacity_never_exceeded(self, policy):
        cache = ObjectCache(capacity=self.CAPACITY, eviction=policy)
        for key in zipf_stream(**self.STREAM):
            object_id = ObjectId(key)
            if cache.get(object_id) is None:
                cache.put(CacheEntry(object_id))
            assert len(cache) <= self.CAPACITY

    def test_eviction_bookkeeping_identities(self, policy):
        cache = ObjectCache(capacity=self.CAPACITY, eviction=policy)
        _, victims = drive(cache, zipf_stream(**self.STREAM))
        evictions = [v for v in victims if v is not None]
        inserts = len(victims)
        assert cache.eviction_count == len(evictions)
        assert len(cache.eviction_windows) == len(evictions)
        assert len(cache) == inserts - len(evictions)
        # Windows and refetch counter agree: a window is closed iff the
        # object re-entered the cache afterwards.
        closed = sum(1 for w in cache.eviction_windows if w.closed)
        assert cache.refetch_after_evict_count == closed
        for victim in evictions:
            assert cache.was_evicted(victim)

    def test_just_inserted_key_is_never_the_victim(self, policy):
        cache = ObjectCache(capacity=self.CAPACITY, eviction=policy)
        for key in zipf_stream(**self.STREAM):
            object_id = ObjectId(key)
            if cache.get(object_id) is not None:
                continue
            evicted = cache.put(CacheEntry(object_id))
            if evicted is not None:
                assert evicted.object_id != object_id
            assert object_id in cache

    def test_victim_sequence_deterministic_under_fixed_seed(self, policy):
        stream = zipf_stream(**self.STREAM)
        runs = []
        for _ in range(2):
            cache = ObjectCache(capacity=self.CAPACITY, eviction=policy)
            hits, victims = drive(cache, stream)
            runs.append((hits, victims))
        assert runs[0] == runs[1]

    def test_capacity_one_single_resident(self, policy):
        cache = ObjectCache(capacity=1, eviction=policy)
        a, b = ObjectId("a"), ObjectId("b")
        assert cache.put(CacheEntry(a)) is None
        evicted = cache.put(CacheEntry(b))
        assert evicted is not None and evicted.object_id == a
        assert list(cache) == [b]

    def test_remove_untracks_key(self, policy):
        cache = ObjectCache(capacity=2, eviction=policy)
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


class TestTinyLFUAdmission:
    def test_tinylfu_beats_lru_hit_rate_on_skewed_zipf(self):
        stream = zipf_stream(keys=200, ops=8000, exponent=1.2, seed=7)
        rates = {}
        for policy in ("lru", "tinylfu"):
            cache = ObjectCache(capacity=10, eviction=policy)
            hits, _ = drive(cache, stream)
            rates[policy] = hits / len(stream)
        assert rates["tinylfu"] >= rates["lru"]

    def test_one_hit_wonders_do_not_displace_the_hot_set(self):
        """A scan of cold keys must not flush still-active residents.

        Hot traffic continues during the scan (pure abandonment would
        legitimately decay the hot set out via sketch aging); each cold
        key is seen exactly once, so admission should reject it in the
        contest against any still-popular main resident.
        """
        cache = ObjectCache(capacity=10, eviction="tinylfu")
        hot = [ObjectId(f"hot{i}") for i in range(8)]
        for object_id in hot:
            cache.put(CacheEntry(object_id))
        for _ in range(50):
            for object_id in hot:
                assert cache.get(object_id) is not None
        for i in range(500):
            assert cache.get(hot[i % len(hot)]) is not None
            scan_id = ObjectId(f"scan{i}")
            if cache.get(scan_id) is None:
                cache.put(CacheEntry(scan_id))
        surviving = sum(
            1 for object_id in hot if cache.get(object_id, touch=False)
        )
        assert surviving == len(hot)


class TestLFUTieBreak:
    """Regression: equal counts break by insertion order, nothing else."""

    def test_equal_counts_evict_oldest_insertion(self):
        cache = ObjectCache(capacity=3, eviction="lfu")
        a, b, c, d = (ObjectId(k) for k in "abcd")
        for object_id in (a, b, c):
            cache.put(CacheEntry(object_id))
        evicted = cache.put(CacheEntry(d))
        assert evicted is not None and evicted.object_id == a

    def test_access_breaks_out_of_the_tie(self):
        cache = ObjectCache(capacity=3, eviction="lfu")
        a, b, c, d, e = (ObjectId(k) for k in "abcde")
        for object_id in (a, b, c):
            cache.put(CacheEntry(object_id))
        cache.put(CacheEntry(d))  # evicts a (oldest of the count ties)
        cache.get(b)  # b now outranks the remaining count-0 keys
        evicted = cache.put(CacheEntry(e))
        assert evicted is not None and evicted.object_id == c

    def test_reinsertion_gets_a_fresh_sequence_number(self):
        cache = ObjectCache(capacity=3, eviction="lfu")
        a, b, c, d = (ObjectId(k) for k in "abcd")
        for object_id in (a, b, c):
            cache.put(CacheEntry(object_id))
        cache.put(CacheEntry(d))  # evicts a
        cache.get(b)
        cache.get(c)
        evicted = cache.put(CacheEntry(a))  # a returns, newest again
        # d (count 0) loses; the returning a is exempt as just-inserted.
        assert evicted is not None and evicted.object_id == d


class _ManualClock:
    """A settable clock for driving EvictionWindow timestamps."""

    def __init__(self) -> None:
        self.now: Seconds = 0.0

    def __call__(self) -> Seconds:
        return self.now


class _CacheHolder:
    """Duck-typed stand-in for a proxy: just enough for the collector."""

    def __init__(self, cache: ObjectCache) -> None:
        self.cache = cache


def _snapshot(object_id: ObjectId, time: Seconds) -> ObjectSnapshot:
    return ObjectSnapshot(
        object_id=object_id, version=1, last_modified=time
    )


class TestEvictRefetchProperties:
    """Hypothesis: the evict→refetch cycle vs the staleness bound."""

    @given(
        polls_before=st.integers(min_value=1, max_value=8),
        evicted_at=st.floats(min_value=10.0, max_value=1e4),
        gap=st.floats(min_value=0.5, max_value=1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_refetch_resets_poll_history(self, polls_before, evicted_at, gap):
        """The refetched entry starts with an empty fetch log."""
        cache = ObjectCache(capacity=1, eviction="lru")
        clock = _ManualClock()
        cache.bind_clock(clock)
        a, b = ObjectId("a"), ObjectId("b")
        entry = CacheEntry(a)
        for i in range(polls_before):
            entry.record_fetch(
                float(i),
                _snapshot(a, float(i)),
                modified=True,
                reason=PollReason.TTR_EXPIRED,
            )
        cache.put(entry)
        assert cache.get(a).poll_count == polls_before
        clock.now = evicted_at
        evicted = cache.put(CacheEntry(b))  # displaces a
        assert evicted is not None and evicted.object_id == a
        assert evicted.poll_count == polls_before  # history left with it
        clock.now = evicted_at + gap
        cache.put(CacheEntry(a))  # the refetch
        refetched = cache.get(a, touch=False)
        assert refetched is not None
        assert refetched.poll_count == 0
        # Re-putting a into the full cache displaced b, opening b's own
        # (still-open) window; a's is the first.
        window = cache.eviction_windows[0]
        assert window.object_id == a
        assert window.closed
        assert window.refetched_at == pytest.approx(evicted_at + gap)
        assert cache.refetch_after_evict_count == 1

    @given(
        evicted_at=st.floats(min_value=100.0, max_value=1e4),
        gap=st.floats(min_value=1.0, max_value=1e4),
        # Strictly inside the window: updates_in() is (start, end], so an
        # update at the eviction instant itself belongs to the previous
        # poll interval, not the absence window.
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
        cache = ObjectCache(capacity=1, eviction="lru")
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
        cache = ObjectCache(capacity=1, eviction="lru")
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
#: per-object order could silently diverge from eviction order.
_programs = st.lists(
    st.tuples(
        st.sampled_from(("put", "get", "get_or_create", "remove")),
        st.integers(min_value=0, max_value=len(_KEYS) - 1),
        st.sampled_from((0.0, 0.0, 0.25, 1.0, 7.5)),
    ),
    max_size=120,
)


def _run_program(policy: str, capacity: int, program) -> ObjectCache:
    cache = ObjectCache(capacity=capacity, eviction=policy)
    clock = _ManualClock()
    cache.bind_clock(clock)
    for operation, index, advance in program:
        clock.now += advance
        key = _KEYS[index]
        if operation == "put":
            cache.put(CacheEntry(key))
        elif operation == "get":
            cache.get(key)
        elif operation == "get_or_create":
            cache.get_or_create(key)
        else:
            cache.remove(key)
    return cache


def _flat_scan_impact(
    cache: ObjectCache,
    trace: UpdateTrace,
    delta: Optional[Seconds],
    horizon: Optional[Seconds],
) -> EvictionImpact:
    """The collector as it was before the per-object index: the oracle.

    Filters the flat eviction-order view per object and decides a
    violation by looping over ``updates_in`` — quadratic over a run,
    which is why it lives only here.
    """
    end = horizon if horizon is not None else trace.end_time
    evictions = refetches = violations = 0
    absent = 0.0
    for window in cache.eviction_windows:
        if window.object_id != trace.object_id:
            continue
        evictions += 1
        if window.closed:
            refetches += 1
        close = window.refetched_at if window.refetched_at is not None else end
        absent += window.duration(end)
        if delta is None:
            continue
        for update in trace.updates_in(window.evicted_at, close):
            if close - update.time > delta:
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
    """Hypothesis: the per-object window index vs the flat view."""

    @given(
        policy=st.sampled_from(POLICIES),
        capacity=st.integers(min_value=1, max_value=4),
        program=_programs,
    )
    @settings(max_examples=200, deadline=None)
    def test_index_agrees_with_flat_view(self, policy, capacity, program):
        cache = _run_program(policy, capacity, program)
        flat = cache.eviction_windows
        indexed = 0
        for key in _KEYS:
            windows = cache.windows_of(key)
            assert windows == tuple(w for w in flat if w.object_id == key)
            assert cache.was_evicted(key) == bool(windows)
            # At most one open window, and only ever the newest: an
            # object must re-enter the cache before it can leave again.
            assert all(window.closed for window in windows[:-1])
            if windows and not windows[-1].closed:
                assert key not in cache
            indexed += len(windows)
        assert indexed == cache.eviction_count == len(flat)
        closed = sum(1 for window in flat if window.closed)
        assert cache.refetch_after_evict_count == closed

    @given(
        policy=st.sampled_from(POLICIES),
        capacity=st.integers(min_value=1, max_value=4),
        program=_programs,
        delta=st.sampled_from((None, 0.0, 0.25, 5.0, 1e6)),
        horizon=st.one_of(st.none(), st.floats(min_value=0.0, max_value=400.0)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_collector_equals_flat_scan_oracle(
        self, policy, capacity, program, delta, horizon, data
    ):
        """Field-for-field, ``absent_time`` bit-for-bit (same sum order).

        Updates are drawn from instants at and around the window edges,
        so both ends of ``(evicted, refetched]`` and "unserved for
        exactly Δ" occur; the horizon may fall before an open window's
        eviction (the clipped span is then zero).
        """
        cache = _run_program(policy, capacity, program)
        holder = _CacheHolder(cache)
        for key in _KEYS:
            candidates = sorted(
                {
                    max(0.0, edge + offset)
                    for window in cache.windows_of(key)
                    for edge in (window.evicted_at, window.refetched_at)
                    if edge is not None
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
            assert impact == _flat_scan_impact(cache, trace, delta, horizon)


class TestScoringNeverScansTheFlatView:
    """Structural pin: row scoring reads windows per object only."""

    def test_append_object_rows_does_not_touch_eviction_windows(
        self, monkeypatch
    ):
        kernel = Kernel()
        origin = OriginServer()
        objects = [ObjectId(f"obj{i}") for i in range(16)]
        traces = [
            trace_from_times(
                object_id,
                [10.0 * step + index for step in range(1, 40)],
                end_time=500.0,
            )
            for index, object_id in enumerate(objects)
        ]
        feed_traces(kernel, origin, traces)
        proxy = ProxyCache(
            kernel, Network(kernel), cache=ObjectCache(capacity=4, eviction="lru")
        )
        rng = random.Random(3)
        for object_id in objects:
            proxy.bind_server(object_id, origin)
        for step in range(600):
            # Round-robin first so every object is fetched at least once.
            object_id = objects[step] if step < 16 else rng.choice(objects)
            kernel.schedule_at(
                0.5 + 0.75 * step,
                lambda _k, object_id=object_id: proxy.handle_client_request(
                    object_id
                ),
            )
        kernel.run(until=500.0)
        assert proxy.cache.eviction_count > 300

        def scan_forbidden(_self):
            raise AssertionError("scoring scanned the flat eviction_windows view")

        monkeypatch.setattr(
            ObjectCache, "eviction_windows", property(scan_forbidden)
        )
        rows: List[dict] = []
        append_object_rows(
            lambda *cells: rows.append(dict(zip(OBJECT_ROW_COLUMNS, cells))),
            "edge",
            proxy,
            traces,
            30.0,
            horizon=500.0,
        )
        assert len(rows) == len(traces)

        def total(column: str) -> int:
            return sum(row[column] for row in rows)

        assert total("evictions") == proxy.cache.eviction_count
        assert total("refetch_after_evict") == proxy.cache.refetch_after_evict_count
        assert total("staleness_violations") > 0


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
    """A bounded TinyLFU tree end to end, on a worker pool, under two
    ``PYTHONHASHSEED`` values.

    TinyLFU salts its count-min sketch with CRC32 rather than ``hash()``,
    so which objects its edges admit must not move with the hash seed;
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
        cache=CacheConfig(capacity=2, eviction="tinylfu"),
        fidelity_delta_s=600.0,
    )

    def test_tinylfu_tree_csv_is_identical(self, tmp_path):
        serial = run_simulation(self.CONFIG).results
        assert sum(serial.column("evictions")) > 0
        path = tmp_path / "tinylfu_tree.json"
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
