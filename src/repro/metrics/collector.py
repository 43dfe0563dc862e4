"""Convenience bridge between simulation state and fidelity metrics.

After a run, an experiment holds a :class:`~repro.proxy.proxy.ProxyCache`
(with per-entry fetch logs) and the ground-truth traces.  The collector
extracts fetch schedules from the fetch logs and invokes the metric
functions, producing the rows the paper's figures plot.

Result-row production for the config execution path lives here too:
:func:`append_object_rows` and :func:`append_group_rows` emit each
node's cells positionally — under :data:`OBJECT_ROW_COLUMNS` and
:data:`GROUP_ROW_COLUMNS` respectively — into a caller-supplied row
writer (in practice a
:meth:`repro.api.results.ColumnarBuilder.row_writer`; the writer is
duck-typed so metrics never imports the api layer above it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycle
    from repro.groups.registry import GroupRegistry

from repro.core.types import ObjectId, Seconds
from repro.metrics.fidelity import (
    FidelityReport,
    TemporalFetch,
    temporal_fidelity,
)
from repro.metrics.group import group_temporal_fidelity
from repro.metrics.mutual import (
    mutual_poll_synchrony_fidelity,
    mutual_value_fidelity,
)
from repro.proxy.proxy import ProxyCache
from repro.traces.model import UpdateTrace


def temporal_fetches_of(
    proxy: ProxyCache, object_id: ObjectId
) -> List[TemporalFetch]:
    """(poll time, obtained Last-Modified) pairs for an object."""
    entry = proxy.entry_for(object_id)
    return [
        (time, snapshot.last_modified)
        for time, snapshot in zip(entry.fetch_times, entry.fetch_snapshots)
    ]


def synchrony_fetches_of(
    proxy: ProxyCache, object_id: ObjectId
) -> List[Tuple[Seconds, bool]]:
    """(poll time, modified?) pairs for poll-synchrony evaluation."""
    entry = proxy.entry_for(object_id)
    return list(zip(entry.fetch_times, entry.fetch_modified))


def value_fetches_of(
    proxy: ProxyCache, object_id: ObjectId
) -> List[Tuple[Seconds, float]]:
    """(poll time, obtained value) pairs for a valued object."""
    entry = proxy.entry_for(object_id)
    fetches: List[Tuple[Seconds, float]] = []
    for time, snapshot in zip(entry.fetch_times, entry.fetch_snapshots):
        if snapshot.value is not None:
            fetches.append((time, snapshot.value))
    return fetches


def collect_temporal(
    proxy: ProxyCache,
    trace: UpdateTrace,
    delta: Seconds,
    *,
    start: Optional[Seconds] = None,
    end: Optional[Seconds] = None,
) -> FidelityReport:
    """Δt-consistency report for one object after a run."""
    fetches = temporal_fetches_of(proxy, trace.object_id)
    return temporal_fidelity(trace, fetches, delta, start=start, end=end)


@dataclass(frozen=True)
class EvictionImpact:
    """How a bounded cache's evictions interacted with consistency.

    Each eviction of an object opens an absence window (see
    :meth:`~repro.proxy.cache.ObjectCache.absences_of`): until the
    refetch the proxy holds neither a copy nor poll history, so the
    consistency policy's Δ bound cannot hold by construction.  A window
    counts as an *effective staleness violation* when an origin update
    actually fell inside it and was still unserved more than Δ later —
    eviction did not merely suspend the bound, it voided it.

    Attributes:
        object_id: The object evaluated.
        evictions: Times the object was evicted from this cache.
        refetches_after_evict: Absence windows closed by a refetch.
        staleness_violations: Windows in which an origin update went
            unseen for longer than Δ (``0`` when ``delta`` is ``None``).
        absent_time: Total simulated time the object was missing from
            the cache (open windows clipped at the horizon).
    """

    object_id: ObjectId
    evictions: int
    refetches_after_evict: int
    staleness_violations: int
    absent_time: Seconds


def collect_eviction_impact(
    proxy: ProxyCache,
    trace: UpdateTrace,
    delta: Optional[Seconds],
    *,
    horizon: Optional[Seconds] = None,
) -> EvictionImpact:
    """Eviction × consistency report for one object after a run.

    ``horizon`` closes still-open absence windows (defaults to the
    trace end); ``delta`` is the Δ bound the policy promised — pass
    ``None`` to skip violation counting (unbounded runs report zeros
    across the board since no windows exist).
    """
    end = horizon if horizon is not None else trace.end_time
    evictions = 0
    refetches = 0
    violations = 0
    absent = 0.0
    object_id = trace.object_id
    spans = proxy.cache.absences_of(object_id)
    for i in range(0, len(spans), 2):
        evicted = spans[i]
        evictions += 1
        if i + 1 < len(spans):
            close = spans[i + 1]
            refetches += 1
        else:
            close = end
        absent += max(0.0, close - evicted)
        if delta is None:
            continue
        # The bound is voided iff some update inside the window was
        # still unserved more than Δ after it happened: the first
        # chance to serve it is the refetch (or never, for open
        # windows — scored at the horizon).  Updates are time-ordered,
        # so the earliest one in the window waited longest and decides.
        first = trace.next_after(evicted)
        if first is not None and first <= close and close - first > delta:
            violations += 1
    return EvictionImpact(
        object_id=object_id,
        evictions=evictions,
        refetches_after_evict=refetches,
        staleness_violations=violations,
        absent_time=absent,
    )


@dataclass(frozen=True)
class PairReport:
    """Mutual-consistency evaluation for an object pair."""

    pair: Tuple[ObjectId, ObjectId]
    report: FidelityReport
    polls_a: int
    polls_b: int

    @property
    def total_polls(self) -> int:
        return self.polls_a + self.polls_b


def collect_mutual_temporal(
    proxy: ProxyCache,
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    delta: Seconds,
    *,
    start: Optional[Seconds] = None,
    end: Optional[Seconds] = None,
) -> PairReport:
    """Mt report for a pair after a run."""
    fetches_a = temporal_fetches_of(proxy, trace_a.object_id)
    fetches_b = temporal_fetches_of(proxy, trace_b.object_id)
    report = group_temporal_fidelity(
        {trace_a.object_id: trace_a, trace_b.object_id: trace_b},
        {trace_a.object_id: fetches_a, trace_b.object_id: fetches_b},
        delta,
        start=start,
        end=end,
    )
    return PairReport(
        pair=(trace_a.object_id, trace_b.object_id),
        report=report,
        polls_a=len(fetches_a),
        polls_b=len(fetches_b),
    )


def collect_mutual_synchrony(
    proxy: ProxyCache,
    object_a: ObjectId,
    object_b: ObjectId,
    delta: Seconds,
) -> PairReport:
    """Operational (poll-synchrony) Mt report for a pair after a run."""
    fetches_a = synchrony_fetches_of(proxy, object_a)
    fetches_b = synchrony_fetches_of(proxy, object_b)
    report = mutual_poll_synchrony_fidelity(fetches_a, fetches_b, delta)
    return PairReport(
        pair=(object_a, object_b),
        report=report,
        polls_a=len(fetches_a),
        polls_b=len(fetches_b),
    )


def collect_mutual_value(
    proxy: ProxyCache,
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    delta: float,
    *,
    f: Callable[[float, float], float] = lambda x, y: x - y,
    start: Optional[Seconds] = None,
    end: Optional[Seconds] = None,
) -> PairReport:
    """Mv report for a valued pair after a run."""
    fetches_a = value_fetches_of(proxy, trace_a.object_id)
    fetches_b = value_fetches_of(proxy, trace_b.object_id)
    report = mutual_value_fidelity(
        trace_a, trace_b, fetches_a, fetches_b, delta,
        f=f, start=start, end=end,
    )
    return PairReport(
        pair=(trace_a.object_id, trace_b.object_id),
        report=report,
        polls_a=len(fetches_a),
        polls_b=len(fetches_b),
    )


#: A positional row appender (duck-typed; see the module docstring).
RowAppender = Callable[..., None]

#: The per-(node, object) cells :func:`append_object_rows` emits, in
#: call order.  The api layer's result schema is assembled from this
#: plus :data:`GROUP_ROW_COLUMNS` (see
#: :data:`repro.api.builder.RESULT_COLUMNS`).
OBJECT_ROW_COLUMNS: Tuple[str, ...] = (
    "node",
    "object",
    "updates",
    "polls",
    "fidelity_by_violations",
    "fidelity_by_time",
    "evictions",
    "refetch_after_evict",
    "staleness_violations",
)

#: The per-(node, group) cells :func:`append_group_rows` emits, in
#: call order.
GROUP_ROW_COLUMNS: Tuple[str, ...] = (
    "node",
    "group",
    "group_polls",
    "group_violations",
    "group_fidelity_by_violations",
    "group_fidelity_by_time",
)


def append_object_rows(
    write: RowAppender,
    node: str,
    proxy: ProxyCache,
    traces: Sequence[UpdateTrace],
    delta: Optional[Seconds],
    *,
    horizon: Optional[Seconds] = None,
) -> None:
    """Emit one :data:`OBJECT_ROW_COLUMNS` row per trace on one node.

    Fidelity is scored by :func:`collect_temporal`; with ``delta=None``
    the fidelity cells are ``None``.
    """
    for trace in traces:
        # A bounded cache may have evicted the object without a later
        # refetch: there is then no entry (and no poll history) to
        # score — entry_or_none still raises for unregistered objects.
        entry = proxy.entry_or_none(trace.object_id)
        violations: Optional[float] = None
        by_time: Optional[float] = None
        polls = 0
        if entry is not None:
            if delta is not None:
                report = collect_temporal(proxy, trace, delta)
                violations = report.fidelity_by_violations
                by_time = report.fidelity_by_time
            polls = entry.poll_count
        impact = collect_eviction_impact(proxy, trace, delta, horizon=horizon)
        write(
            node,
            str(trace.object_id),
            trace.update_count,
            polls,
            violations,
            by_time,
            impact.evictions,
            impact.refetches_after_evict,
            impact.staleness_violations,
        )


def append_group_rows(
    write: RowAppender,
    node: str,
    proxy: ProxyCache,
    registry: "GroupRegistry",
    traces_by_id: Dict[ObjectId, UpdateTrace],
    horizon: Seconds,
) -> None:
    """Emit one :data:`GROUP_ROW_COLUMNS` row per group on one node."""
    for spec in registry:
        fetches = {}
        for member in spec.members:
            # A bounded cache may have evicted a member; its fetch
            # history is gone, so it contributes no poll events (the
            # group metric then scores the remaining members' polls).
            entry = proxy.entry_or_none(member)
            fetches[member] = (
                [] if entry is None else temporal_fetches_of(proxy, member)
            )
        report = group_temporal_fidelity(
            {member: traces_by_id[member] for member in spec.members},
            fetches,
            spec.mutual_delta,
            end=horizon,
        )
        write(
            node,
            str(spec.group_id),
            report.polls,
            report.violations,
            report.fidelity_by_violations,
            report.fidelity_by_time,
        )
