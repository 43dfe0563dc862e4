"""Experiment harness: one module per paper table/figure, plus the
shared seeded workloads, the paper's LIMD set-up and the report.

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
figure3``, the report — runs it by name through
:func:`repro.scenarios.engine.run_scenario`.  What the paper says the
artefact shows is stated beside it as ``claims=`` (``CLAIMS`` on the
time-series figures' modules); the report prints each verdict and
``tests/test_paper_claims.py`` pins it.
"""
