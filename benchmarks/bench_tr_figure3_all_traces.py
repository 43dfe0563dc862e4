"""TR bench — Figure 3 repeated on every Table 2 trace.

The paper shows Figure 3 only for CNN/FN and notes "Similar results
were obtained for other traces, which we omit due to space constraints;
more results may be found in the technical report" (TR 00-47).  This
bench regenerates the omitted sweeps: the Figure 3 shape must hold on
all four news workloads, from the slow CNN/FN (one update per 26 min)
to the fast Guardian (one per 4.9 min).
"""

from __future__ import annotations

from repro.api.render import render_dict_rows
from repro.scenarios.engine import run_scenario

TRACE_KEYS = ("cnn_fn", "nyt_ap", "nyt_reuters", "guardian")
DELTAS_MIN = (1, 10, 60)


def _evaluate(*, workers=None):
    rows = []
    for key in TRACE_KEYS:
        result = run_scenario(
            "figure3",
            params={"trace": key},
            values=DELTAS_MIN,
            workers=workers,
        )
        for row in result.rows:
            rows.append(
                {
                    "trace": key,
                    "delta_min": row["delta_min"],
                    "limd_polls": row["limd_polls"],
                    "baseline_polls": row["baseline_polls"],
                    "poll_ratio": row["poll_ratio"],
                    "limd_fidelity": row["limd_fidelity_violations"],
                }
            )
    return rows


def test_tr_figure3_all_traces(run_once):
    rows = run_once(_evaluate)
    print()
    print(
        render_dict_rows(
            rows, title="TR: Figure 3 sweep on all Table 2 traces"
        )
    )
    by_trace = {}
    for row in rows:
        by_trace.setdefault(row["trace"], {})[row["delta_min"]] = row

    for key in TRACE_KEYS:
        sweep = by_trace[key]
        # (1) Poll savings at the tightest constraint on every trace.
        assert sweep[1]["poll_ratio"] > 2.0, key
        # (2) Convergence toward the baseline at the loosest constraint.
        assert sweep[60]["limd_polls"] <= sweep[60]["baseline_polls"] * 1.2, key
        # (3) Poll ratio shrinks as Δ loosens.
        assert sweep[1]["poll_ratio"] > sweep[60]["poll_ratio"], key
        # (4) Fidelity stays useful everywhere.
        assert sweep[1]["limd_fidelity"] > 0.5, key

    # (5) The faster the trace updates, the smaller the LIMD advantage
    # at Δ = 1 min (there is less idle time to skip): Guardian's ratio
    # must not exceed CNN/FN's.
    assert (
        by_trace["guardian"][1]["poll_ratio"]
        <= by_trace["cnn_fn"][1]["poll_ratio"]
    )
