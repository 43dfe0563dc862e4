"""Time-series extraction for the paper's time-series figures.

* Figure 4(a): updates per 2-hour bin — :func:`update_frequency_series`.
* Figure 4(b): TTR over time — :func:`ttr_series`.
* Figure 6(a): ratio of two objects' update frequencies —
  :func:`update_ratio_series`.
* Figure 6(b): triggered ("extra") polls per bin —
  :func:`extra_polls_series`.
* Figure 8: f at proxy and server over time —
  :func:`f_value_series` / :func:`server_f_knots`.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.timeseries import (
    Series,
    bin_count,
    ratio_series,
    sample_step_function,
)
from repro.consistency.mutual_temporal import TriggerDecision
from repro.core.types import Seconds
from repro.metrics.fidelity import require_values
from repro.traces.model import UpdateTrace


def update_frequency_series(
    trace: UpdateTrace,
    bin_width: Seconds,
    *,
    label: Optional[str] = None,
) -> Series:
    """Updates per bin over the trace window (Figure 4(a))."""
    return bin_count(
        trace.times,
        start=trace.start_time,
        end=trace.end_time,
        bin_width=bin_width,
        label=label or f"updates({trace.metadata.name})",
    )


def ttr_series(
    ttr_knots: Sequence[Tuple[Seconds, Seconds]],
    *,
    start: Seconds,
    end: Seconds,
    bin_width: Seconds,
    initial: float = float("nan"),
    label: str = "ttr",
) -> Series:
    """Sample a TTR step function at bin centers (Figure 4(b)).

    ``ttr_knots`` are (time, new TTR) change points, e.g. the policy's
    ``current_ttr`` read by a poll observer after each completed poll
    (see :mod:`repro.experiments.figure4`).
    """
    return sample_step_function(
        list(ttr_knots),
        start=start,
        end=end,
        bin_width=bin_width,
        initial=initial,
        label=label,
    )


def update_ratio_series(
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    bin_width: Seconds,
    *,
    label: str = "rate-ratio",
) -> Series:
    """Ratio of the two objects' update frequencies per bin (Fig. 6(a)).

    NaN where the denominator bin is empty.
    """
    start = min(trace_a.start_time, trace_b.start_time)
    end = max(trace_a.end_time, trace_b.end_time)
    series_a = bin_count(
        trace_a.times,
        start=start, end=end, bin_width=bin_width, label="a",
    )
    series_b = bin_count(
        trace_b.times,
        start=start, end=end, bin_width=bin_width, label="b",
    )
    return ratio_series(series_a, series_b, label=label)


def extra_polls_series(
    decisions: Sequence[TriggerDecision],
    *,
    start: Seconds,
    end: Seconds,
    bin_width: Seconds,
    label: str = "extra-polls",
) -> Series:
    """Triggered polls per bin (Figure 6(b))."""
    return bin_count(
        (d.time for d in decisions if d.triggered),
        start=start, end=end, bin_width=bin_width, label=label,
    )


def server_f_knots(
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    f: Callable[[float, float], float],
) -> List[Tuple[Seconds, float]]:
    """(time, f at server) step knots — Figure 8's server series.

    The two traces' time columns are merged in one pass; a knot is kept
    where f changes, from the first instant both objects exist.

    Raises:
        ValueError: A trace carries no values.
    """
    require_values("server_f_knots", trace_a, trace_b)
    times_a, values_a, count_a = trace_a.times, trace_a.values, len(trace_a.times)
    times_b, values_b, count_b = trace_b.times, trace_b.values, len(trace_b.times)
    next_a = next_b = 0
    knots: List[Tuple[Seconds, float]] = []
    while next_a < count_a or next_b < count_b:
        update_a = times_a[next_a] if next_a < count_a else math.inf
        update_b = times_b[next_b] if next_b < count_b else math.inf
        time = update_a if update_a < update_b else update_b
        if update_a == time:
            next_a += 1
        if update_b == time:
            next_b += 1
        if not (next_a and next_b):
            continue
        value = f(values_a[next_a - 1], values_b[next_b - 1])
        if not knots or knots[-1][1] != value:
            knots.append((time, value))
    return knots


def f_value_series(
    knots: Sequence[Tuple[Seconds, float]],
    *,
    start: Seconds,
    end: Seconds,
    bin_width: Seconds,
    label: str,
) -> Series:
    """Sample an f step function for plotting (Figure 8)."""
    return sample_step_function(
        list(knots), start=start, end=end, bin_width=bin_width, label=label
    )
