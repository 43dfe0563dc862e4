"""Unified public façade for constructing and running simulations.

One coherent, typed entry point shared by the CLI, the scenario
engine, the sweep executor, and external callers:

* :mod:`repro.api.config` — :class:`SimulationConfig` and its
  sub-configs: typed, JSON-round-trip, unknown fields rejected;
* :mod:`repro.api.builder` — the fluent :class:`SimulationBuilder`
  and :func:`run_simulation`, the one config execution path;
* :mod:`repro.api.results` — :class:`ResultSet` / :class:`ResultRow`
  with a declared column schema and JSON/CSV/records exporters;
* :mod:`repro.core.registry` — the generic :class:`Registry` the
  consistency-policy, scenario, and workload-source lookups share
  (re-exported here for compatibility);
* :mod:`repro.api.runs` — the live-object layer under the config
  path: ``build_stack`` and the run functions the paper's artefacts
  call (``run_individual``, the mutual-consistency runs, ``run_many``);
* :mod:`repro.api.executors` — the serial/parallel executors
  ``run_many`` and the scenario engine fan out through;
* :mod:`repro.api.render` — ASCII tables and sparkline series.

Quickstart (see ``docs/API_GUIDE.md`` for the full guide)::

    from repro.api import SimulationBuilder

    outcome = (
        SimulationBuilder()
        .workload("news", "cnn_fn")
        .policy("limd", delta=600.0, ttr_max=3600.0)
        .fidelity_delta(600.0)
        .run()
    )
    print(outcome.results.to_csv())
"""

from repro.api.builder import (
    RESULT_COLUMNS,
    SimulationBuilder,
    SimulationOutcome,
    run_simulation,
)
from repro.api.config import (
    CacheConfig,
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
from repro.core.registry import Registry, RegistryError
from repro.api.results import ResultRow, ResultSchemaError, ResultSet
from repro.api.runs import (
    RunResult,
    build_core,
    build_stack,
    run_individual,
    run_many,
    run_mutual_temporal,
    run_mutual_value_adaptive,
    run_mutual_value_partitioned,
)
from repro.api.workloads import (
    register_workload_source,
    resolve_workload,
    workload_source_names,
)

__all__ = [
    "CacheConfig",
    "GroupConfig",
    "GroupsConfig",
    "LevelConfig",
    "NetworkConfig",
    "PolicyConfig",
    "Registry",
    "RegistryError",
    "RESULT_COLUMNS",
    "ResultRow",
    "ResultSchemaError",
    "ResultSet",
    "RunResult",
    "SimulationBuilder",
    "SimulationConfig",
    "SimulationConfigError",
    "SimulationOutcome",
    "TopologyConfig",
    "WorkloadConfig",
    "build_core",
    "build_stack",
    "register_workload_source",
    "resolve_workload",
    "run_individual",
    "run_many",
    "run_mutual_temporal",
    "run_mutual_value_adaptive",
    "run_mutual_value_partitioned",
    "run_simulation",
    "workload_source_names",
]
