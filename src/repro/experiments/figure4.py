"""Figure 4 — adaptive behaviour of LIMD over time (CNN/FN, Δ = 10 min).

* (a) updates per 2-hour bin: the trace's diurnal rhythm;
* (b) the TTR computed by LIMD over time.

What the paper says they show is :data:`CLAIMS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.timeseries import Series
from repro.api.runs import RunResult, build_stack
from repro.consistency.base import RefreshPolicy
from repro.consistency.limd import limd_policy_factory
from repro.core.types import HOUR, MINUTE, ObjectId, ObjectSnapshot, Seconds
from repro.experiments.paper import PAPER_LIMD_PARAMETERS, TTR_MAX
from repro.api.render import render_series_block
from repro.experiments.workloads import DEFAULT_SEED, news_trace
from repro.metrics.series import ttr_series, update_frequency_series
from repro.scenarios.registry import Claim, Verdict, prepare_params_seed, scenario

DELTA: Seconds = 10 * MINUTE
UPDATE_BIN: Seconds = 2 * HOUR
TTR_BIN: Seconds = 15 * MINUTE


class _TTRKnots:
    """Poll observer: the (poll time, TTR the policy then chose) knots.

    Observers run after the refresher has fed the poll to the policy,
    so ``current_ttr`` is already the TTR computed from this poll.
    """

    def __init__(self, policy: RefreshPolicy) -> None:
        self._policy = policy
        self.knots: List[Tuple[Seconds, Seconds]] = []

    def on_poll_complete(
        self, object_id: ObjectId, now: Seconds, modified: bool,
        snapshot: ObjectSnapshot, first_unseen: Optional[Seconds],
        updates_since: Optional[int],
    ) -> None:
        self.knots.append((now, self._policy.current_ttr))


@dataclass
class Figure4Result:
    """The two series of Figure 4 plus the raw run and what it ran on."""

    update_frequency: Series
    ttr: Series
    run: RunResult[None]
    trace_key: str
    delta: Seconds

    @property
    def max_ttr_minutes(self) -> float:
        finite = [v for v in self.ttr.values if v == v]  # drop NaN
        return max(finite) / MINUTE if finite else float("nan")

    @property
    def min_ttr_minutes(self) -> float:
        finite = [v for v in self.ttr.values if v == v]
        return min(finite) / MINUTE if finite else float("nan")


def run(
    *,
    trace_key: str = "cnn_fn",
    delta: Seconds = DELTA,
    seed: int = DEFAULT_SEED,
) -> Figure4Result:
    """Run LIMD at Δ=10 min and extract both Figure 4 series."""
    trace = news_trace(trace_key, seed)
    policy = limd_policy_factory(
        delta, ttr_max=TTR_MAX, parameters=PAPER_LIMD_PARAMETERS
    )(trace.object_id)
    kernel, server, proxy = build_stack([trace])
    # Attached before registration so the initial fetch is a knot too.
    observer = _TTRKnots(policy)
    proxy.add_observer(observer)
    proxy.register_object(trace.object_id, server, policy)
    kernel.run(until=trace.end_time)
    result = RunResult(
        kernel=kernel,
        server=server,
        proxy=proxy,
        traces={trace.object_id: trace},
        coordinator=None,
    )
    updates = update_frequency_series(trace, UPDATE_BIN, label="updates/2h")
    ttr = ttr_series(
        observer.knots,
        start=trace.start_time,
        end=trace.end_time,
        bin_width=TTR_BIN,
        initial=delta,
        label="TTR (s)",
    )
    return Figure4Result(
        update_frequency=updates,
        ttr=ttr,
        run=result,
        trace_key=trace_key,
        delta=delta,
    )


def _ttr_follows_the_night(result: Figure4Result) -> Verdict:
    updates = result.update_frequency
    # The longest run of update-free bins: [first, first + bins).
    first = bins = start = 0
    for index, count in enumerate(updates.values):
        if count:
            start = index + 1
        elif index + 1 - start > bins:
            first, bins = start, index + 1 - start
    quiet_end = updates.start + (first + bins) * updates.bin_width
    # The TTR needs time to grow: look at the last 30% of that stretch.
    late = [
        value
        for center, value in zip(result.ttr.bin_centers(), result.ttr.values)
        if quiet_end - 0.3 * bins * updates.bin_width <= center < quiet_end
        and value == value  # drop NaN
    ]
    late_peak = max(late, default=0.0) / MINUTE
    return (
        min(updates.values) == 0.0
        and max(updates.values) >= 4.0
        and bins >= 2
        and result.max_ttr_minutes >= 55.0
        and result.min_ttr_minutes <= 12.0
        and late_peak >= 45.0,
        f"the longest update-free stretch is {bins * updates.bin_width / HOUR:g} h "
        f"and the TTR is {late_peak:.0f} min late in it; TTR range "
        f"[{result.min_ttr_minutes:.1f}, {result.max_ttr_minutes:.1f}] min",
    )


#: Judged on a :class:`Figure4Result` (the registered scenario keeps
#: only the summary row, which has no series to judge).
CLAIMS = (
    Claim(
        "figure4.ttr_follows_the_night",
        "The update rate falls to about zero for a few hours every night; "
        "the TTR climbs to TTR_max = 60 min across each quiet night and "
        "collapses toward Δ = 10 min when updates resume.",
        _ttr_follows_the_night,
    ),
)


def render(result: Figure4Result) -> str:
    """Render both series as sparklines with their ranges."""
    block = render_series_block(
        [result.update_frequency, result.ttr],
        title=(
            f"Figure 4: Adaptive behaviour of LIMD ({result.trace_key}, "
            f"delta = {result.delta / MINUTE:g} min).\n"
            f"TTR should climb toward TTR_max ({TTR_MAX:g} s) in quiet "
            "(night) bins\n"
            f"and fall back toward delta ({result.delta:g} s) when updates "
            "resume."
        ),
    )
    summary = (
        f"\nTTR range observed: [{result.min_ttr_minutes:.1f}, "
        f"{result.max_ttr_minutes:.1f}] minutes"
    )
    return block + summary



@scenario(
    name="figure4",
    description="Figure 4: LIMD adaptivity over time (summary statistics)",
    axis="delta_min",
    values=(10.0,),
    params={"trace": "cnn_fn"},
    title="Figure 4: LIMD TTR adaptivity on {trace} (single run summary)",
    tags=("paper", "figure", "timeseries"),
    prepare=prepare_params_seed,
)
def _summary_point(
    delta_min: float, *, params: Mapping[str, object], seed: int
) -> Dict[str, object]:
    """The series of one run reduced to a row (listable, golden-pinned)."""
    result = run(trace_key=str(params["trace"]), delta=delta_min * MINUTE, seed=seed)
    return {
        "trace": params["trace"],
        "polls": result.run.total_polls,
        "ttr_min_min": result.min_ttr_minutes,
        "ttr_max_min": result.max_ttr_minutes,
    }
