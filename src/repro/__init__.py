"""repro — a reproduction of *Maintaining Mutual Consistency for Cached
Web Objects* (Urgaonkar, Ninan, Raunak, Shenoy, Ramamritham; ICDCS 2001).

The library implements the paper's full stack in pure Python:

* a discrete-event simulation kernel (:mod:`repro.sim`);
* a simulated HTTP layer with conditional GETs and the paper's proposed
  protocol extensions (:mod:`repro.httpsim`);
* origin servers driven by update traces (:mod:`repro.server`,
  :mod:`repro.traces`);
* a proxy cache with pluggable consistency policies (:mod:`repro.proxy`);
* the paper's algorithms — LIMD, adaptive value TTR, triggered/heuristic
  mutual temporal consistency, adaptive-f and partitioned-δ mutual value
  consistency (:mod:`repro.consistency`);
* ground-truth fidelity metrics (:mod:`repro.metrics`);
* per-table/figure experiment harnesses (:mod:`repro.experiments`).

Quickstart::

    from repro import (
        MINUTE, limd_policy_factory, news_trace, run_individual,
        collect_temporal,
    )

    trace = news_trace("cnn_fn")
    delta = 10 * MINUTE
    result = run_individual([trace], limd_policy_factory(delta))
    report = collect_temporal(result.proxy, trace, delta).report
    print(report.polls, report.fidelity_by_violations)
"""

from repro.consistency import (
    AdaptiveFCoordinator,
    AdaptiveFParameters,
    AdaptiveValueParameters,
    AdaptiveValueTTRPolicy,
    FixedTTRPolicy,
    GroupBudget,
    LimdParameters,
    LimdPolicy,
    MutualTemporalCoordinator,
    MutualTemporalMode,
    PartitionedGroupMvCoordinator,
    PartitionedMvCoordinator,
    PartitionParameters,
    PassivePolicy,
    RefreshPolicy,
    adaptive_value_policy_factory,
    fixed_policy_factory,
    group_f_history,
    limd_policy_factory,
    total_minus_parts,
)
from repro.core import (
    DAY,
    HOUR,
    MINUTE,
    ConsistencyBounds,
    GroupSpec,
    ManualClock,
    ObjectId,
    ObjectSnapshot,
    PollOutcome,
    ReproError,
    RngRegistry,
    Seconds,
    TTRBounds,
    UpdateRecord,
)
from repro.experiments import (
    DEFAULT_SEED,
    RunResult,
    news_trace,
    news_traces,
    run_individual,
    run_mutual_temporal,
    run_mutual_value_adaptive,
    run_mutual_value_group,
    run_mutual_value_partitioned,
    stock_trace,
    stock_traces,
)
from repro.groups import DependencyGraph, GroupRegistry, relate_document
from repro.httpsim import LatencyModel, Network
from repro.metrics import (
    FidelityReport,
    collect_mutual_temporal,
    collect_mutual_value,
    collect_temporal,
    collect_value,
    mutual_temporal_fidelity,
    mutual_value_fidelity,
    temporal_fidelity,
    value_fidelity,
)
from repro.metrics import temporal_fidelity_from_snapshots
from repro.proxy import Client, ObjectCache, ProxyCache
from repro.server import OriginServer, UpdateFeeder, feed_traces
from repro.sim import EventLog, Kernel
from repro.topology import TopologyNode, TopologyTree, TreeLevel, uniform_levels
from repro.traces import (
    NewsTraceSpec,
    SportsMatchSpec,
    StockTraceSpec,
    UpdateTrace,
    generate_match,
    trace_from_ticks,
    trace_from_times,
)

__version__ = "1.0.0"

__all__ = [
    # consistency
    "AdaptiveFCoordinator",
    "AdaptiveFParameters",
    "AdaptiveValueParameters",
    "AdaptiveValueTTRPolicy",
    "FixedTTRPolicy",
    "GroupBudget",
    "LimdParameters",
    "LimdPolicy",
    "MutualTemporalCoordinator",
    "MutualTemporalMode",
    "PartitionedGroupMvCoordinator",
    "PartitionedMvCoordinator",
    "PartitionParameters",
    "PassivePolicy",
    "RefreshPolicy",
    "adaptive_value_policy_factory",
    "fixed_policy_factory",
    "group_f_history",
    "limd_policy_factory",
    "total_minus_parts",
    # core
    "DAY",
    "HOUR",
    "MINUTE",
    "ConsistencyBounds",
    "GroupSpec",
    "ManualClock",
    "ObjectId",
    "ObjectSnapshot",
    "PollOutcome",
    "ReproError",
    "RngRegistry",
    "Seconds",
    "TTRBounds",
    "UpdateRecord",
    # experiments
    "DEFAULT_SEED",
    "RunResult",
    "news_trace",
    "news_traces",
    "run_individual",
    "run_mutual_temporal",
    "run_mutual_value_adaptive",
    "run_mutual_value_group",
    "run_mutual_value_partitioned",
    "stock_trace",
    "stock_traces",
    # groups
    "DependencyGraph",
    "GroupRegistry",
    "relate_document",
    # httpsim
    "LatencyModel",
    "Network",
    # metrics
    "FidelityReport",
    "collect_mutual_temporal",
    "collect_mutual_value",
    "collect_temporal",
    "collect_value",
    "mutual_temporal_fidelity",
    "mutual_value_fidelity",
    "temporal_fidelity",
    "temporal_fidelity_from_snapshots",
    "value_fidelity",
    # proxy / server / sim
    "Client",
    "ObjectCache",
    "ProxyCache",
    "OriginServer",
    "UpdateFeeder",
    "feed_traces",
    "EventLog",
    "Kernel",
    # topology
    "TopologyNode",
    "TopologyTree",
    "TreeLevel",
    "uniform_levels",
    # traces
    "NewsTraceSpec",
    "SportsMatchSpec",
    "StockTraceSpec",
    "UpdateTrace",
    "generate_match",
    "trace_from_ticks",
    "trace_from_times",
    "__version__",
]
