"""Experiment harness: one module per paper table/figure, plus shared
runner/sweep/render infrastructure.

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

Every module's entry point is a thin spec over the declarative
scenario engine (:mod:`repro.scenarios`): the same experiments are
listable, overridable, and runnable by name via
``python -m repro scenarios run <name>``.
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
    SweepResult,
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
    "SweepResult",
    "DEFAULT_SEED",
    "news_trace",
    "news_traces",
    "stock_trace",
    "stock_traces",
]
