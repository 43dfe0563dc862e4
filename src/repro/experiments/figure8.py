"""Figure 8 — f at the proxy vs the server over time (δ = $0.6).

Plots the difference in the two stock prices as tracked by each Mv
approach against the true server-side difference, over the window
[2500 s, 5000 s] of the AT&T + Yahoo pair.  What the paper says the
series show is :data:`CLAIMS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.analysis.timeseries import Series
from repro.api.runs import (
    run_many,
    run_mutual_value_adaptive,
    run_mutual_value_partitioned,
)
from repro.consistency.mutual_value import difference, group_f_history
from repro.core.types import Seconds, TTRBounds
from repro.experiments.figure7 import VALUE_BOUNDS
from repro.api.render import render_series_block
from repro.experiments.workloads import DEFAULT_SEED
from repro.metrics.series import f_value_series, server_f_knots
from repro.scenarios.registry import Claim, Verdict, prepare_params_seed, scenario
from repro.traces.model import UpdateTrace
from repro.traces.stocks import table3_traces

MUTUAL_DELTA = 0.6
WINDOW: Tuple[Seconds, Seconds] = (2500.0, 5000.0)
BIN: Seconds = 10.0


@dataclass
class Figure8Result:
    """Server and proxy f series for both approaches."""

    server: Series
    adaptive_proxy: Series
    partitioned_proxy: Series
    mutual_delta: float
    window: Tuple[Seconds, Seconds]

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
) -> Series:
    """Run one Mv approach and sample its proxy f series.

    Module-level and returning only the series, so it is a picklable
    run-spec for :func:`~repro.api.runs.run_many`.
    """
    if which == "adaptive":
        result = run_mutual_value_adaptive(
            trace_a, trace_b, mutual_delta, bounds=bounds
        )
    else:
        result = run_mutual_value_partitioned(
            (trace_a, trace_b), mutual_delta, bounds=bounds
        )
    start, end = window
    return f_value_series(
        group_f_history(
            result.proxy,
            (trace_a.object_id, trace_b.object_id),
            lambda values: _f_reversed(*values),
        ),
        start=start, end=end, bin_width=BIN, label=f"{which} proxy",
    )


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
    processes.
    """
    trace_a, trace_b = table3_traces(pair, seed)
    start, end = window

    server_series = f_value_series(
        server_f_knots(trace_a, trace_b, _f_reversed),
        start=start, end=end, bin_width=BIN, label="server",
    )

    approach = partial(
        _run_approach,
        trace_a=trace_a,
        trace_b=trace_b,
        mutual_delta=mutual_delta,
        window=window,
        bounds=bounds,
    )
    adaptive_series, partitioned_series = run_many(
        [partial(approach, "adaptive"), partial(approach, "partitioned")],
        workers=workers,
    )
    return Figure8Result(
        server=server_series,
        adaptive_proxy=adaptive_series,
        partitioned_proxy=partitioned_series,
        mutual_delta=mutual_delta,
        window=window,
    )


def _partitioned_tracks_tighter(result: Figure8Result) -> Verdict:
    server = [value for value in result.server.values if not math.isnan(value)]
    spread = max(server) - min(server)
    adaptive = result.tracking_error("adaptive")
    partitioned = result.tracking_error("partitioned")
    return (
        spread > 0 and partitioned < adaptive < spread * 0.5,
        f"mean tracking error: adaptive {adaptive:.3f}, partitioned "
        f"{partitioned:.3f}, against a server-side range of ${spread:.2f}",
    )


#: Judged on a :class:`Figure8Result` (the registered scenario keeps
#: only the summary row, which has no series to judge).
CLAIMS = (
    Claim(
        "figure8.partitioned_tracks_tighter",
        "Both proxy-side series follow the server-side difference, and the "
        "partitioned approach tracks it more tightly than adaptive-f.",
        _partitioned_tracks_tighter,
    ),
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
