"""Ablation bench — triggered-poll semantics (additional vs replace).

The paper counts triggered polls as *additional* polls on top of the
unchanged LIMD schedule.  The alternative lets a triggered poll replace
the next scheduled refresh (re-phasing the schedule).  Expected shape:
both achieve fidelity 1 under the operational measure (they are both
"triggered" approaches); replace-mode ends up with the same or fewer
total polls because triggered polls absorb scheduled ones.
"""

from __future__ import annotations

from repro.scenarios.engine import render_scenario, run_scenario


def test_ablation_trigger_semantics(run_once):
    result = run_once(run_scenario, "ablation_trigger_semantics")
    rows = result.rows
    print()
    print(render_scenario(result))

    by_mode = {row["semantics"]: row for row in rows}
    additional = by_mode["additional"]
    replace = by_mode["replace"]

    # Both variants synchronise detections → operational fidelity 1.
    assert additional["fidelity"] == 1.0
    assert replace["fidelity"] == 1.0

    # Both actually triggered polls.
    assert additional["extra_polls"] > 0
    assert replace["extra_polls"] > 0

    # Replace-mode absorbs scheduled polls: total polls should not
    # meaningfully exceed additional-mode's.
    assert replace["polls"] <= additional["polls"] * 1.1
