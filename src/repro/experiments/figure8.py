"""Figure 8 — f at the proxy vs the server over time (δ = $0.6).

Plots the difference in the two stock prices as tracked by each Mv
approach against the true server-side difference, over the window
[2500 s, 5000 s] of the AT&T + Yahoo pair.  The partitioned approach is
expected to hug the server series more tightly than adaptive-f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.analysis.timeseries import Series
from repro.api.runs import (
    RunResult,
    run_many,
    run_mutual_value_adaptive,
    run_mutual_value_partitioned,
)
from repro.consistency.mutual_value import difference, paired_f_history
from repro.core.types import Seconds, TTRBounds
from repro.experiments.figure7 import VALUE_BOUNDS
from repro.api.render import render_series_block
from repro.experiments.workloads import DEFAULT_SEED, stock_trace
from repro.metrics.series import f_value_series, server_f_knots
from repro.scenarios.registry import prepare_params_seed, scenario
from repro.traces.model import UpdateTrace

MUTUAL_DELTA = 0.6
WINDOW: Tuple[Seconds, Seconds] = (2500.0, 5000.0)
BIN: Seconds = 10.0


@dataclass
class Figure8Result:
    """Server and proxy f series for both approaches.

    The raw :class:`RunResult` objects are only retained on serial runs
    (``workers`` absent or 1): live simulation state cannot cross the
    process boundary the parallel path uses.
    """

    server: Series
    adaptive_proxy: Series
    partitioned_proxy: Series
    mutual_delta: float
    window: Tuple[Seconds, Seconds]
    adaptive_run: Optional[RunResult] = None
    partitioned_run: Optional[RunResult] = None

    def tracking_error(self, which: str) -> float:
        """Mean |proxy − server| across bins (lower = tighter tracking)."""
        proxy = (
            self.adaptive_proxy if which == "adaptive" else self.partitioned_proxy
        )
        gaps = [
            abs(p - s)
            for p, s in zip(proxy.values, self.server.values)
            if not (math.isnan(p) or math.isnan(s))
        ]
        return sum(gaps) / len(gaps) if gaps else math.nan


def _f_reversed(a: float, b: float) -> float:
    """The paper plots Yahoo − AT&T (a positive difference ~$130)."""
    return difference(b, a)


def _run_approach(
    which: str,
    *,
    trace_a: UpdateTrace,
    trace_b: UpdateTrace,
    mutual_delta: float,
    window: Tuple[Seconds, Seconds],
    bounds: TTRBounds,
) -> Tuple[Series, RunResult]:
    """Run one Mv approach and sample its proxy f series."""
    runner = (
        run_mutual_value_adaptive
        if which == "adaptive"
        else run_mutual_value_partitioned
    )
    result = runner(trace_a, trace_b, mutual_delta, bounds=bounds)
    start, end = window
    series = f_value_series(
        paired_f_history(
            result.proxy, trace_a.object_id, trace_b.object_id, _f_reversed
        ),
        start=start, end=end, bin_width=BIN, label=f"{which} proxy",
    )
    return series, result


def _approach_point(which: str, **kwargs: Any) -> Series:
    """Picklable run-spec: one approach's proxy series, sans live state."""
    series, _ = _run_approach(which, **kwargs)
    return series


def run(
    *,
    pair: Sequence[str] = ("att", "yahoo"),
    mutual_delta: float = MUTUAL_DELTA,
    window: Tuple[Seconds, Seconds] = WINDOW,
    seed: int = DEFAULT_SEED,
    bounds: TTRBounds = VALUE_BOUNDS,
    workers: Optional[int] = None,
) -> Figure8Result:
    """Run both Mv approaches and sample the three f series.

    ``workers`` > 1 runs the two approaches in parallel worker
    processes; the resulting :class:`Figure8Result` then carries only
    the series (``adaptive_run``/``partitioned_run`` are ``None``).
    """
    key_a, key_b = pair
    trace_a = stock_trace(key_a, seed)
    trace_b = stock_trace(key_b, seed)
    start, end = window

    server_series = f_value_series(
        server_f_knots(trace_a, trace_b, _f_reversed),
        start=start, end=end, bin_width=BIN, label="server",
    )

    approach_kwargs = dict(
        trace_a=trace_a,
        trace_b=trace_b,
        mutual_delta=mutual_delta,
        window=window,
        bounds=bounds,
    )
    if workers is not None and workers > 1:
        adaptive_series, partitioned_series = run_many(
            [
                partial(_approach_point, "adaptive", **approach_kwargs),
                partial(_approach_point, "partitioned", **approach_kwargs),
            ],
            workers=workers,
        )
        adaptive = partitioned = None
    else:
        adaptive_series, adaptive = _run_approach(
            "adaptive", **approach_kwargs
        )
        partitioned_series, partitioned = _run_approach(
            "partitioned", **approach_kwargs
        )

    return Figure8Result(
        server=server_series,
        adaptive_proxy=adaptive_series,
        partitioned_proxy=partitioned_series,
        mutual_delta=mutual_delta,
        window=window,
        adaptive_run=adaptive,
        partitioned_run=partitioned,
    )


def render(result: Figure8Result) -> str:
    """Render the three Figure 8 f series as ASCII sparklines."""
    start, end = result.window
    block = render_series_block(
        [result.server, result.adaptive_proxy, result.partitioned_proxy],
        title=(
            "Figure 8: f (stock-price difference, $) at proxy vs server, "
            f"delta = ${result.mutual_delta:g}, "
            f"window [{start:g} s, {end:g} s]"
        ),
    )
    summary = (
        f"\nmean tracking error: adaptive = "
        f"{result.tracking_error('adaptive'):.4f}, "
        f"partitioned = {result.tracking_error('partitioned'):.4f}"
    )
    return block + summary



@scenario(
    name="figure8",
    description="Figure 8: f at proxy vs server (tracking-error summary)",
    axis="mutual_delta",
    values=(MUTUAL_DELTA,),
    params={"pair": ("att", "yahoo")},
    title=(
        "Figure 8: proxy-vs-server tracking error on {pair} "
        "(single run summary)"
    ),
    tags=("paper", "figure", "timeseries"),
    prepare=prepare_params_seed,
)
def _summary_point(
    mutual_delta: float, *, params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    """The series of one run reduced to a row (listable, golden-pinned)."""
    pair = tuple(str(key) for key in params["pair"])  # type: ignore[union-attr]
    result = run(pair=pair, mutual_delta=mutual_delta, seed=seed)
    return {
        "pair": "+".join(pair),
        "adaptive_tracking_error": result.tracking_error("adaptive"),
        "partitioned_tracking_error": result.tracking_error("partitioned"),
    }
