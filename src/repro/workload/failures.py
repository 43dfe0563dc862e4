"""Proxy failure/recovery schedules and injection.

The paper (§3.1) argues LIMD's minimal state makes proxy recovery
trivial: reset every TTR to TTR_min and resume.  The repo already
models the recovery itself (:meth:`repro.proxy.proxy.ProxyCache.
recover_from_failure`, exercised by ``tests/test_failure_recovery.py``);
this module adds the *workload* side — alternating up/down schedules —
so scenarios can sweep crash-recovery churn.

A :class:`FailureSchedule` is a validated list of non-overlapping down
intervals.  :func:`generate_failure_schedule` draws one from
exponential up/down durations, which cannot overlap by construction —
an invariant the property-based tests pin.  The outage itself is not
simulated in the network (polls are autonomous proxy state that the
crash destroys); what matters for consistency is that the proxy's
learned TTRs are lost, so the injector fires ``recover_from_failure``
at each down interval's end, exactly the paper's recovery prescription.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.core.types import Seconds, require_positive
from repro.proxy.proxy import ProxyCache
from repro.sim.kernel import Kernel


@dataclass(frozen=True)
class DownInterval:
    """One outage: the proxy is down in [start, end)."""

    start: Seconds
    end: Seconds

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"end ({self.end}) must exceed start ({self.start})"
            )

    @property
    def duration(self) -> Seconds:
        return self.end - self.start


@dataclass(frozen=True)
class FailureSchedule:
    """A time-ordered sequence of non-overlapping down intervals."""

    intervals: Tuple[DownInterval, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", tuple(self.intervals))
        previous = None
        for interval in self.intervals:
            if previous is not None and interval.start < previous.end:
                raise ValueError(
                    f"down intervals overlap or are unordered: "
                    f"[{previous.start}, {previous.end}) then "
                    f"[{interval.start}, {interval.end})"
                )
            previous = interval

    @property
    def failure_count(self) -> int:
        return len(self.intervals)

    @property
    def total_downtime(self) -> Seconds:
        return sum(interval.duration for interval in self.intervals)

    def downtime_fraction(self, horizon: Seconds) -> float:
        """Share of [0, horizon] spent down."""
        require_positive("horizon", horizon)
        return self.total_downtime / horizon


def generate_failure_schedule(
    rng: random.Random,
    *,
    horizon: Seconds,
    mean_uptime: Seconds,
    mean_downtime: Seconds,
    start: Seconds = 0.0,
) -> FailureSchedule:
    """Draw an alternating up/down schedule over [start, horizon].

    Up and down durations are exponential with the given means; the
    next up period starts where the previous outage ended, so intervals
    can never overlap.  Outages are clipped at the horizon.
    """
    require_positive("mean_uptime", mean_uptime)
    require_positive("mean_downtime", mean_downtime)
    if horizon <= start:
        raise ValueError(
            f"horizon ({horizon}) must exceed start ({start})"
        )
    intervals = []
    t = start
    while True:
        t += rng.expovariate(1.0 / mean_uptime)
        if t >= horizon:
            break
        down_end = min(horizon, t + rng.expovariate(1.0 / mean_downtime))
        if down_end > t:
            intervals.append(DownInterval(t, down_end))
        t = down_end
    return FailureSchedule(tuple(intervals))


class FailureInjector:
    """Applies a :class:`FailureSchedule` to a proxy on a kernel.

    At each down interval's end the proxy recovers from the crash:
    every policy resets to TTR_min and polling resumes promptly
    (§3.1's recovery semantics, via ``recover_from_failure``).
    """

    def __init__(
        self, kernel: Kernel, proxy: ProxyCache, schedule: FailureSchedule
    ) -> None:
        self._proxy = proxy
        self.recoveries = 0
        for interval in schedule.intervals:
            kernel.schedule_at(interval.end, self._recover)

    def _recover(self, kernel: Kernel) -> None:
        del kernel
        self._proxy.recover_from_failure()
        self.recoveries += 1
