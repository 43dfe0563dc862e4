"""Experiment harness: one module per paper table/figure, plus shared
workload/executor/render infrastructure.

Modules:
    * :mod:`repro.experiments.table2` / :mod:`~repro.experiments.table3`
      — workload characterisation tables.
    * :mod:`repro.experiments.figure3` — LIMD vs baseline (Δ sweep).
    * :mod:`repro.experiments.figure4` — LIMD adaptivity over time.
    * :mod:`repro.experiments.figure5` — Mt approaches (δ sweep).
    * :mod:`repro.experiments.figure6` — heuristic adaptivity over time.
    * :mod:`repro.experiments.figure7` — Mv approaches (δ sweep).
    * :mod:`repro.experiments.figure8` — f at proxy vs server over time.
    * :mod:`repro.experiments.ablations` — design-choice studies.
    * :mod:`repro.experiments.group_mt` /
      :mod:`~repro.experiments.hierarchy` — extensions.

Each module *is* the definition of its artefact: it decorates its point
function with :func:`repro.scenarios.registry.scenario`, and everything
else — ``python -m repro figure3``, ``python -m repro scenarios run
figure3``, the report, the regenerators under ``benchmarks/`` — runs it
by name through :func:`repro.scenarios.engine.run_scenario`.
"""

# Canonical homes are in the repro.api façade; re-exported here so
# `from repro.experiments import run_individual` keeps working.
from repro.api.runs import (
    RunResult,
    run_individual,
    run_many,
    run_mutual_temporal,
    run_mutual_value_adaptive,
    run_mutual_value_group,
    run_mutual_value_partitioned,
)
from repro.experiments.sweep import (
    ParallelExecutor,
    SerialExecutor,
    SweepExecutor,
    executor_for,
)
from repro.experiments.workloads import (
    DEFAULT_SEED,
    news_trace,
    news_traces,
    stock_trace,
    stock_traces,
)

__all__ = [
    "RunResult",
    "run_individual",
    "run_many",
    "run_mutual_temporal",
    "run_mutual_value_adaptive",
    "run_mutual_value_group",
    "run_mutual_value_partitioned",
    "SweepExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "executor_for",
    "DEFAULT_SEED",
    "news_trace",
    "news_traces",
    "stock_trace",
    "stock_traces",
]
