#!/usr/bin/env python
"""Stock ticker: value-domain mutual consistency for a price pair.

The paper's motivating example: a user watches two stocks to see if one
outperforms the other by more than δ dollars.  The proxy must keep
``f = price_a − price_b`` within δ of its server-side value (Eq. 5)
while polling as little as possible.

Compares the two Section 4.2 approaches on synthetic AT&T / Yahoo tick
traces calibrated to Table 3, at a user tolerance of δ = $0.60 (the
Figure 8 setting), and prints how tightly each approach tracked the
true difference.

Run:
    python examples/stock_ticker.py
"""

from __future__ import annotations

from repro.consistency.mutual_value import difference, group_f_history
from repro.core.types import TTRBounds
from repro.api.runs import (
    run_mutual_value_adaptive,
    run_mutual_value_partitioned,
)
from repro.experiments.workloads import stock_trace
from repro.metrics.collector import collect_mutual_value

MUTUAL_DELTA = 0.60  # dollars
BOUNDS = TTRBounds(ttr_min=1.0, ttr_max=60.0)


def describe(trace) -> str:
    values = trace.values
    return (
        f"{trace.metadata.name}: {trace.update_count} ticks over "
        f"{trace.duration / 3600:.0f} h, "
        f"range [${min(values):.2f}, ${max(values):.2f}]"
    )


def main() -> None:
    att = stock_trace("att")
    yahoo = stock_trace("yahoo")
    print(describe(att))
    print(describe(yahoo))
    print(f"\nGuarantee: |f(server) − f(proxy)| < ${MUTUAL_DELTA:.2f} "
          f"where f = price difference\n")

    rows = []

    adaptive = run_mutual_value_adaptive(
        att, yahoo, MUTUAL_DELTA, bounds=BOUNDS
    )
    adaptive_report = collect_mutual_value(
        adaptive.proxy, att, yahoo, MUTUAL_DELTA, f=difference
    )
    rows.append(("adaptive-f", adaptive, adaptive_report))

    partitioned = run_mutual_value_partitioned(
        (att, yahoo), MUTUAL_DELTA, bounds=BOUNDS
    )
    partitioned_report = collect_mutual_value(
        partitioned.proxy, att, yahoo, MUTUAL_DELTA, f=difference
    )
    rows.append(("partitioned", partitioned, partitioned_report))

    print(f"{'approach':<12} {'polls':>6} {'fidelity (Eq.13)':>17} "
          f"{'fidelity (Eq.14)':>17}")
    for name, _run, pair in rows:
        print(
            f"{name:<12} {pair.total_polls:>6} "
            f"{pair.report.fidelity_by_violations:>17.3f} "
            f"{pair.report.fidelity_by_time:>17.3f}"
        )

    # How tightly did each approach track the true difference?
    for name, run_result, _pair in rows:
        knots = group_f_history(
            run_result.proxy,
            (att.object_id, yahoo.object_id),
            lambda values: difference(*values),
        )
        errors = []
        for time, proxy_f in knots:
            sa = att.value_at(time)
            sb = yahoo.value_at(time)
            if sa is not None and sb is not None:
                errors.append(abs(difference(sa, sb) - proxy_f))
        if errors:
            print(
                f"\n{name}: mean tracking error at refresh instants "
                f"${sum(errors) / len(errors):.4f} "
                f"(max ${max(errors):.4f} over {len(errors)} refreshes)"
            )

    delta_a, delta_b = partitioned.coordinator.current_tolerances().values()
    print(
        f"\nFinal partitioned split: AT&T gets δa = ${delta_a:.3f}, "
        f"Yahoo gets δb = ${delta_b:.3f} "
        "(the faster mover earns the tighter tolerance)"
    )


if __name__ == "__main__":
    main()
