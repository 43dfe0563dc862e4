"""Synthetic news-page update traces (Table 2 substitute).

The paper collected update traces from four news pages by polling them
once a minute for 2–3 days (Table 2).  We cannot replay those exact
traces, so we generate synthetic ones with the same *structure*:

* exactly the update count and window duration listed in Table 2;
* a diurnal intensity profile — updates slow dramatically overnight and
  stop entirely in a quiet window, the feature that drives the LIMD
  TTR growth/collapse cycle in Figure 4;
* bursty spacing within the active period (a mixture of short follow-up
  gaps and longer lulls, as breaking-news pages exhibit).

The generator draws *exactly* N update instants by inverse-transform
sampling against the integrated diurnal intensity, so the Table 2
columns (duration, number of updates, mean update interval) are matched
by construction.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.rng import RngRegistry
from repro.core.types import DAY, HOUR, MINUTE, ObjectId, Seconds
from repro.traces.model import (
    TraceMetadata,
    UpdateTrace,
    select_traces,
    trace_from_times,
)

#: Minimum separation between consecutive synthetic updates.  The paper's
#: collection program polled once a minute, so sub-second spacing carries
#: no information; one second keeps traces strictly ordered.
MIN_UPDATE_SPACING: Seconds = 1.0


@dataclass(frozen=True)
class DiurnalProfile:
    """A 24-hour piecewise-constant update intensity profile.

    ``weights[h]`` is the *relative* intensity during hour ``h`` (0–23).
    Absolute rates are irrelevant because the generator conditions on the
    total update count; only the shape matters.  Hours with weight zero
    produce no updates (the overnight quiet window of Figure 4(a)).
    """

    weights: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.weights) != 24:
            raise ValueError(f"need 24 hourly weights, got {len(self.weights)}")
        if any(w < 0 for w in self.weights):
            raise ValueError("hourly weights must be non-negative")
        if not any(w > 0 for w in self.weights):
            raise ValueError("at least one hourly weight must be positive")


#: A newsroom-like profile: quiet 1am–6am, busiest mid-morning through
#: evening.  Matches the Figure 4(a) shape (update rate falls to ~zero
#: for a few hours every night).
DEFAULT_NEWS_PROFILE = DiurnalProfile(
    weights=(
        0.3,  # 00
        0.0,  # 01
        0.0,  # 02
        0.0,  # 03
        0.0,  # 04
        0.0,  # 05
        0.4,  # 06
        0.8,  # 07
        1.0,  # 08
        1.2,  # 09
        1.3,  # 10
        1.3,  # 11
        1.2,  # 12
        1.2,  # 13
        1.3,  # 14
        1.3,  # 15
        1.2,  # 16
        1.1,  # 17
        1.0,  # 18
        0.9,  # 19
        0.8,  # 20
        0.7,  # 21
        0.6,  # 22
        0.4,  # 23
    )
)


@dataclass(frozen=True)
class NewsTraceSpec:
    """Calibration target for one synthetic news trace (one Table 2 row).

    Attributes:
        name: Trace name as in Table 2.
        start_hour_of_day: Hour (fractional) at which collection began;
            aligns the diurnal profile with the observation window.
        duration: Window length in seconds.
        update_count: Number of updates in the window.
        profile: Diurnal intensity shape.
        burstiness: In [0, 1); fraction of updates that arrive as rapid
            follow-ups shortly after a predecessor (news stories are
            updated in bursts as details emerge).  0 disables bursts.
    """

    name: str
    start_hour_of_day: float
    duration: Seconds
    update_count: int
    profile: DiurnalProfile = DEFAULT_NEWS_PROFILE
    burstiness: float = 0.25

    def __post_init__(self) -> None:
        if not 0 <= self.start_hour_of_day < 24:
            raise ValueError(
                f"start_hour_of_day must be in [0, 24), got {self.start_hour_of_day}"
            )
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.update_count < 1:
            raise ValueError(f"update_count must be >= 1, got {self.update_count}")
        if not 0 <= self.burstiness < 1:
            raise ValueError(f"burstiness must be in [0, 1), got {self.burstiness}")
        if self.update_count * MIN_UPDATE_SPACING >= self.duration:
            raise ValueError(
                f"{self.update_count} updates cannot fit in {self.duration}s "
                f"with {MIN_UPDATE_SPACING}s minimum spacing"
            )

    @property
    def mean_update_interval(self) -> Seconds:
        """The Table 2 'Avg. Update Frequency' column (seconds per update)."""
        return self.duration / self.update_count


def _duration(hours: float, minutes: float = 0.0) -> Seconds:
    return hours * HOUR + minutes * MINUTE


# ----------------------------------------------------------------------
# Table 2 presets.  Durations and counts transcribed from the paper:
#   CNN/FN        Aug 7 13:04 - Aug 9 14:34   113 updates  every 26 min
#   NYT (AP)      Aug 7 14:07 - Aug 9 11:25   233 updates  every 11.6 min
#   NYT (Reuters) Aug 7 14:12 - Aug 9 11:25   133 updates  every 20.3 min
#   Guardian      Aug 6 13:40 - Aug 9 15:32   902 updates  every 4.9 min
# ----------------------------------------------------------------------
CNN_FN = NewsTraceSpec(
    name="CNN Financial News Briefs",
    start_hour_of_day=13.0 + 4.0 / 60.0,
    duration=_duration(49, 30),
    update_count=113,
)

NYT_AP = NewsTraceSpec(
    name="NY Times Breaking News (AP)",
    start_hour_of_day=14.0 + 7.0 / 60.0,
    duration=_duration(45, 18),
    update_count=233,
)

NYT_REUTERS = NewsTraceSpec(
    name="NY Times Breaking News (Reuters)",
    start_hour_of_day=14.0 + 12.0 / 60.0,
    duration=_duration(45, 13),
    update_count=133,
)

GUARDIAN = NewsTraceSpec(
    name="Guardian Breaking News",
    start_hour_of_day=13.0 + 40.0 / 60.0,
    duration=_duration(73, 52),
    update_count=902,
)

TABLE2_SPECS: tuple[NewsTraceSpec, ...] = (CNN_FN, NYT_AP, NYT_REUTERS, GUARDIAN)

#: Short keys used by experiments and the CLI-style harness.
TABLE2_BY_KEY = {
    "cnn_fn": CNN_FN,
    "nyt_ap": NYT_AP,
    "nyt_reuters": NYT_REUTERS,
    "guardian": GUARDIAN,
}


class NewsTraceGenerator:
    """Generates diurnal, bursty update traces matching a spec exactly."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def generate(self, spec: NewsTraceSpec, *, object_id: Optional[str] = None) -> UpdateTrace:
        """Generate a trace with exactly ``spec.update_count`` updates.

        The trace's time axis starts at 0 (== the observation start);
        diurnal structure is aligned via ``spec.start_hour_of_day``.
        """
        base = self._sample_base_times(spec)
        times = self._apply_bursts(spec, base)
        times = _enforce_spacing(times, spec.duration)
        oid = ObjectId(object_id if object_id is not None else spec.name)
        metadata = TraceMetadata(
            name=spec.name,
            description=(
                f"synthetic news-update trace calibrated to Table 2: "
                f"{spec.update_count} updates over {spec.duration / HOUR:.1f} h"
            ),
            source="synthetic:news",
        )
        return trace_from_times(
            oid,
            times,
            start_time=0.0,
            end_time=spec.duration,
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    def _sample_base_times(self, spec: NewsTraceSpec) -> List[Seconds]:
        """Inverse-transform sample N instants against the diurnal CDF."""
        cumulative, total = _integrated_intensity(spec)
        if total <= 0:
            # The observation window lies entirely inside the profile's
            # quiet hours (possible for short windows).  The requested
            # updates must still be placed somewhere: degrade to uniform
            # sampling over the window.
            return sorted(
                self._rng.random() * spec.duration
                for _ in range(spec.update_count)
            )
        times: List[Seconds] = []
        for _ in range(spec.update_count):
            u = self._rng.random() * total
            times.append(_invert_cumulative(cumulative, u))
        times.sort()
        return times

    def _apply_bursts(self, spec: NewsTraceSpec, times: List[Seconds]) -> List[Seconds]:
        """Re-position a fraction of updates as rapid follow-ups.

        Each selected update is moved to land 30 s – 5 min after its
        predecessor, emulating follow-up edits to a breaking story.  The
        total count is unchanged.
        """
        if spec.burstiness <= 0 or len(times) < 2:
            return times
        out = list(times)
        for i in range(1, len(out)):
            if self._rng.random() < spec.burstiness:
                gap = 30.0 + self._rng.random() * (5 * MINUTE - 30.0)
                candidate = out[i - 1] + gap
                if candidate < min(out[i], spec.duration):
                    out[i] = candidate
        out.sort()
        return out


def _integrated_intensity(
    spec: NewsTraceSpec,
) -> tuple[List[tuple[Seconds, float]], float]:
    """Integrate the diurnal profile over the observation window.

    Returns a list of (segment_start_time, cumulative_intensity_at_start)
    knots plus the total integrated intensity.  Segments are the hourly
    pieces of the profile clipped to the window.
    """
    knots: List[tuple[Seconds, float]] = []
    cumulative = 0.0
    t = 0.0
    offset = spec.start_hour_of_day * HOUR
    while t < spec.duration:
        time_of_day = (offset + t) % DAY
        hour_index = int(time_of_day // HOUR)
        # Distance to the next hour boundary.
        to_boundary = HOUR - (time_of_day - hour_index * HOUR)
        segment = min(to_boundary, spec.duration - t)
        weight = spec.profile.weights[hour_index]
        knots.append((t, cumulative))
        cumulative += weight * segment
        t += segment
    knots.append((spec.duration, cumulative))
    return knots, cumulative


def _invert_cumulative(
    knots: List[tuple[Seconds, float]], target: float
) -> Seconds:
    """Map a cumulative-intensity value back to a time in the window."""
    cumulative_values = [c for _, c in knots]
    index = bisect.bisect_right(cumulative_values, target) - 1
    index = max(0, min(index, len(knots) - 2))
    t0, c0 = knots[index]
    t1, c1 = knots[index + 1]
    if c1 <= c0:
        # Zero-intensity segment: no mass here; land at its start.
        return t0
    frac = (target - c0) / (c1 - c0)
    return t0 + frac * (t1 - t0)


def _enforce_spacing(times: List[Seconds], duration: Seconds) -> List[Seconds]:
    """Nudge sorted times so consecutive gaps are >= MIN_UPDATE_SPACING.

    Works in a single forward pass, then clamps into the window with a
    backward pass if the last update overflowed.
    """
    if not times:
        return times
    out = list(times)
    for i in range(1, len(out)):
        if out[i] - out[i - 1] < MIN_UPDATE_SPACING:
            out[i] = out[i - 1] + MIN_UPDATE_SPACING
    overflow = out[-1] - (duration - MIN_UPDATE_SPACING)
    if overflow > 0:
        # Shift the tail back; spacing was already >= MIN so walking
        # backwards preserves it.
        out[-1] = duration - MIN_UPDATE_SPACING
        for i in range(len(out) - 2, -1, -1):
            if out[i + 1] - out[i] < MIN_UPDATE_SPACING:
                out[i] = out[i + 1] - MIN_UPDATE_SPACING
        if out[0] < 0:
            raise ValueError("updates do not fit in the window with minimum spacing")
    return out


def generate_table2_traces(
    rngs: RngRegistry, *, specs: Sequence[NewsTraceSpec] = TABLE2_SPECS
) -> dict[str, UpdateTrace]:
    """Generate all Table 2 traces keyed by their short names."""
    inverse = {spec.name: key for key, spec in TABLE2_BY_KEY.items()}
    traces: dict[str, UpdateTrace] = {}
    for spec in specs:
        key = inverse.get(spec.name, spec.name)
        generator = NewsTraceGenerator(rngs.stream(f"news.{key}"))
        traces[key] = generator.generate(spec, object_id=key)
    return traces


def table2_traces(keys: Sequence[str], seed: int) -> List[UpdateTrace]:
    """The Table 2 traces named by ``keys`` at one seed, in key order."""
    return select_traces(
        generate_table2_traces(RngRegistry(seed)), keys, "news"
    )
