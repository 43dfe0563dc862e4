#!/usr/bin/env python
"""Quickstart: maintain Δt-consistency for one cached news page.

Builds the smallest useful simulation — one origin server, one object
driven by a synthetic news-update trace, one proxy running the paper's
LIMD algorithm — then reports the polls incurred and the fidelity
achieved, compared against the poll-every-Δ baseline.

Run:
    python examples/quickstart.py
"""

from __future__ import annotations

from repro.api.runs import run_individual
from repro.consistency.base import fixed_policy_factory
from repro.consistency.limd import limd_policy_factory
from repro.core.types import MINUTE
from repro.experiments.workloads import news_trace
from repro.metrics.collector import collect_temporal


def main() -> None:
    # A synthetic trace calibrated to the paper's CNN/FN workload
    # (113 updates over ~49.5 hours, quiet at night).
    trace = news_trace("cnn_fn")
    delta = 10 * MINUTE  # the Δt-consistency bound we promise users

    print(f"Workload: {trace.metadata.name}")
    print(
        f"  {trace.update_count} updates over "
        f"{trace.duration / 3600:.1f} h "
        f"(one every {trace.duration / trace.update_count / 60:.1f} min)"
    )
    print(f"Guarantee: cached copy never more than {delta / 60:.0f} min stale\n")

    # --- LIMD: the paper's adaptive algorithm --------------------------
    limd_run = run_individual([trace], limd_policy_factory(delta))
    limd = collect_temporal(limd_run.proxy, trace, delta)

    # --- Baseline: poll the server every Δ ------------------------------
    base_run = run_individual([trace], fixed_policy_factory(delta))
    base = collect_temporal(base_run.proxy, trace, delta)

    print(f"{'approach':<10} {'polls':>6} {'fidelity (Eq.13)':>17} "
          f"{'fidelity (Eq.14)':>17}")
    for name, report in (("LIMD", limd), ("baseline", base)):
        print(
            f"{name:<10} {report.polls:>6} "
            f"{report.fidelity_by_violations:>17.3f} "
            f"{report.fidelity_by_time:>17.3f}"
        )

    saved = 1 - limd.polls / base.polls
    print(
        f"\nLIMD used {saved:.0%} fewer polls than the baseline while "
        f"keeping {limd.fidelity_by_time:.0%} of the time in bound."
    )


if __name__ == "__main__":
    main()
