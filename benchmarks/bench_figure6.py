"""Figure 6 bench — adaptivity of the mutual-consistency heuristic.

Paper shape (NYT/AP + NYT/Reuters pair):
  * the ratio of the two objects' update frequencies swings over time;
  * extra (triggered) polls happen, but only toward objects changing at
    a similar-or-faster rate — a meaningful fraction of considerations
    is suppressed as "slower rate", so extra polls stay well below the
    number of detected updates.
"""

from __future__ import annotations

import math

from repro.experiments import figure6


def test_figure6_heuristic_adaptivity(run_once):
    result = run_once(figure6.run)
    print()
    print(figure6.render(result))

    # (1) The pair's update-rate ratio varies over time.
    finite = [v for v in result.rate_ratio.values if not math.isnan(v)]
    assert finite
    assert max(finite) > 1.5 * min(v for v in finite if v > 0)

    # (2) The heuristic triggered some polls...
    assert result.total_extra_polls > 0

    # (3) ...but suppressed others because the partner was slower —
    # the essence of the heuristic (a pure triggered approach would
    # have zero suppressions).
    assert result.total_suppressed_by_rate > 0

    # (4) Extra polls are bounded by the trigger considerations.
    considerations = result.run.coordinator.counters.get("considerations")
    assert result.total_extra_polls < considerations
