"""repro — a reproduction of *Maintaining Mutual Consistency for Cached
Web Objects* (Urgaonkar, Ninan, Raunak, Shenoy, Ramamritham; ICDCS 2001).

The library implements the paper's full stack in pure Python:

* a discrete-event simulation kernel (:mod:`repro.sim`);
* a simulated HTTP layer with conditional GETs and the paper's
  Section 5.1 modification-history extension (:mod:`repro.httpsim`);
* origin servers driven by update traces (:mod:`repro.server`,
  :mod:`repro.traces`);
* a proxy cache with pluggable consistency policies (:mod:`repro.proxy`);
* the paper's algorithms — LIMD, adaptive value TTR, triggered/heuristic
  mutual temporal consistency, adaptive-f and partitioned-δ mutual value
  consistency (:mod:`repro.consistency`);
* ground-truth fidelity metrics (:mod:`repro.metrics`);
* per-table/figure experiment harnesses (:mod:`repro.experiments`).

Quickstart::

    from repro.api.runs import run_individual
    from repro.consistency.limd import limd_policy_factory
    from repro.core.types import MINUTE
    from repro.experiments.workloads import news_trace
    from repro.metrics.collector import collect_temporal

    trace = news_trace("cnn_fn")
    delta = 10 * MINUTE
    result = run_individual([trace], limd_policy_factory(delta))
    report = collect_temporal(result.proxy, trace, delta)
    print(report.polls, report.fidelity_by_violations)
"""
