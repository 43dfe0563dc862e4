"""Rate estimation utilities shared by consistency policies.

Two estimators:

* :class:`UpdateRateEstimator` — estimates how often an object changes,
  from the ``Last-Modified`` timestamps successive polls reveal.  Used
  by the Section 3.2 mutual-consistency heuristic ("trigger polls for
  only those objects that change at a rate faster than the object that
  was modified") and by the inferred violation detector.
* :class:`ValueRateEstimator` — estimates how fast an object's *value*
  drifts (Section 4.1, Figure 2), optionally smoothed exponentially.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.types import Seconds, require_fraction


class UpdateRateEstimator:
    """EWMA estimate of an object's update rate (updates per second).

    Fed with the modification times observed at polls.  Each new
    distinct ``Last-Modified`` contributes a gap sample; the estimator
    keeps an exponentially weighted mean gap and reports its inverse.

    The estimator also decays toward slower rates while no modification
    is observed: if the time since the last known modification exceeds
    the current mean gap, the *effective* gap used for the rate is that
    elapsed time (an object that has been silent for an hour is not
    still a once-a-minute object).
    """

    def __init__(self, *, smoothing: float = 0.3) -> None:
        self._smoothing = require_fraction("smoothing", smoothing)
        self._mean_gap: Optional[Seconds] = None
        self._last_modified: Optional[Seconds] = None
        self._samples = 0

    @property
    def sample_count(self) -> int:
        return self._samples

    @property
    def last_modified(self) -> Optional[Seconds]:
        return self._last_modified

    def observe_modification(self, last_modified: Seconds) -> None:
        """Record the ``Last-Modified`` value returned by a poll."""
        if self._last_modified is None:
            self._last_modified = last_modified
            return
        if last_modified <= self._last_modified:
            # Same version seen again (a 304, or a replayed header) —
            # no new information about gaps.
            return
        gap = last_modified - self._last_modified
        self._last_modified = last_modified
        self._observe_gap(gap)

    def observe_update_count(
        self, count: int, interval: Seconds, last_modified: Seconds
    ) -> None:
        """Record that ``count`` updates occurred over ``interval``.

        Available when the server supports the modification-history
        extension: a poll then reveals *how many* updates happened since
        the previous poll, giving a far better rate sample than the
        single Last-Modified gap (which misses every update but the
        newest).
        """
        if count <= 0 or interval <= 0:
            return
        if self._last_modified is None or last_modified > self._last_modified:
            self._last_modified = last_modified
        self._observe_gap(interval / count)

    def _observe_gap(self, gap: Seconds) -> None:
        self._samples += 1
        if self._mean_gap is None:
            self._mean_gap = gap
        else:
            s = self._smoothing
            self._mean_gap = s * gap + (1.0 - s) * self._mean_gap

    def mean_gap(self, now: Optional[Seconds] = None) -> Optional[Seconds]:
        """Estimated mean inter-update gap, silence-adjusted if ``now`` given."""
        if self._mean_gap is None:
            return None
        if now is not None and self._last_modified is not None:
            silence = now - self._last_modified
            if silence > self._mean_gap:
                return silence
        return self._mean_gap

    def rate(self, now: Optional[Seconds] = None) -> Optional[float]:
        """Estimated update rate in updates/second (None if unknown)."""
        gap = self.mean_gap(now)
        if gap is None or gap <= 0:
            return None
        return 1.0 / gap


class ValueRateEstimator:
    """Rate-of-change estimate for a numeric signal (Section 4.1).

    Computes ``r = |v_curr − v_prev| / (t_curr − t_prev)`` from the two
    most recent observations (Figure 2) and optionally smooths the rate
    exponentially across polls.
    """

    def __init__(self, *, smoothing: Optional[float] = None) -> None:
        if smoothing is not None:
            require_fraction("smoothing", smoothing)
        self._smoothing = smoothing
        self._prev_time: Optional[Seconds] = None
        self._prev_value: Optional[float] = None
        self._rate: Optional[float] = None

    @property
    def rate(self) -> Optional[float]:
        """The current rate estimate (value units per second)."""
        return self._rate

    def observe(self, time: Seconds, value: float) -> Optional[float]:
        """Record an observation; returns the updated rate (or None).

        The first observation establishes the baseline and returns None.
        Repeated observations at the same instant are ignored (rate is
        undefined over a zero interval).
        """
        if not math.isfinite(value):
            raise ValueError(f"value must be finite, got {value}")
        if self._prev_time is None or self._prev_value is None:
            self._prev_time = time
            self._prev_value = value
            return None
        dt = time - self._prev_time
        if dt <= 0:
            return self._rate
        instantaneous = abs(value - self._prev_value) / dt
        if self._rate is None or self._smoothing is None:
            self._rate = instantaneous
        else:
            s = self._smoothing
            self._rate = s * instantaneous + (1.0 - s) * self._rate
        self._prev_time = time
        self._prev_value = value
        return self._rate
