"""Mutual consistency in the temporal domain (paper Section 3.2).

The coordinator observes every completed poll.  When a poll reveals an
update to object *a*, it considers triggering polls for a's group
partners, because that is the only moment mutual consistency can newly
break ("polls for related objects need to be synchronized only when one
of the objects is updated").

Three modes, matching the paper's three curves in Figure 5:

* ``NONE`` — baseline LIMD with no mutual support.
* ``TRIGGERED`` — on a detected update, poll every partner, unless the
  partner's previous or next poll instant is within δ (that poll already
  provides the required synchrony).  Gives 100% mutual fidelity.
* ``HEURISTIC`` — additionally require the partner to change at
  approximately the same or a faster rate than the updated object;
  slower partners are left to their own LIMD schedule, trading a little
  fidelity for fewer polls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.analysis.rates import UpdateRateEstimator
from repro.core.events import PollReason
from repro.core.types import GroupSpec, ObjectId, ObjectSnapshot, Seconds
from repro.groups.registry import GroupRegistry
from repro.proxy.proxy import ProxyCache
from repro.sim.stats import Counter

#: Memoised suppressed-poll counter names keyed by suppression reason,
#: so the per-consideration hot path does no f-string formatting.
_SUPPRESSED_COUNTER_NAMES: Dict[str, str] = {}


class MutualTemporalMode(enum.Enum):
    """Which Section 3.2 approach the coordinator applies."""

    NONE = "none"
    TRIGGERED = "triggered"
    HEURISTIC = "heuristic"


@dataclass(frozen=True)
class TriggerDecision:
    """A record of one trigger consideration (the Figure 6 raw data).

    Attributes:
        time: When the decision was made.
        source: The object whose update prompted the consideration.
        target: The partner considered for a triggered poll.
        triggered: Whether a poll was actually issued.
        reason: Why (or why not): ``triggered``, ``recent_poll``,
            ``upcoming_poll``, ``slower_rate``, or ``mode_none``.
        source_rate: Estimated update rate of the source (1/s), if known.
        target_rate: Estimated update rate of the target (1/s), if known.
    """

    time: Seconds
    source: ObjectId
    target: ObjectId
    triggered: bool
    reason: str
    source_rate: Optional[float] = None
    target_rate: Optional[float] = None


class MutualTemporalCoordinator:
    """Poll observer implementing triggered polls and the rate heuristic.

    Args:
        proxy: The proxy whose polls are observed and triggered.
        groups: Group registry with per-group tolerances δ.
        mode: Baseline / triggered / heuristic.
        rate_ratio_threshold: For the heuristic — partner b is polled on
            an update to a iff ``rate_b >= rate_ratio_threshold *
            rate_a``.  1.0 is a strict "same or faster"; the default 0.8
            implements the paper's "approximately the same or faster".
        rate_smoothing: EWMA smoothing for the per-object rate
            estimators.
    """

    def __init__(
        self,
        proxy: ProxyCache,
        groups: GroupRegistry,
        *,
        mode: MutualTemporalMode = MutualTemporalMode.TRIGGERED,
        rate_ratio_threshold: float = 0.8,
        rate_smoothing: float = 0.3,
    ) -> None:
        if rate_ratio_threshold <= 0:
            raise ValueError(
                f"rate_ratio_threshold must be positive, got {rate_ratio_threshold}"
            )
        self._proxy = proxy
        self._groups = groups
        self._mode = mode
        self._rate_ratio_threshold = rate_ratio_threshold
        self._rate_smoothing = rate_smoothing
        self._estimators: Dict[ObjectId, UpdateRateEstimator] = {}
        self._last_rate_sample: Dict[ObjectId, Seconds] = {}
        self._decisions: List[TriggerDecision] = []
        self._triggering: bool = False
        self.counters = Counter()
        proxy.add_observer(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mode(self) -> MutualTemporalMode:
        return self._mode

    @property
    def decisions(self) -> List[TriggerDecision]:
        """All trigger considerations, in time order."""
        return list(self._decisions)

    @property
    def extra_polls(self) -> int:
        """Polls issued by this coordinator beyond the LIMD schedule."""
        return self.counters.get("triggered_polls")

    def rate_of(self, object_id: ObjectId) -> Optional[float]:
        """Current update-rate estimate for an object (1/s)."""
        estimator = self._estimators.get(object_id)
        if estimator is None:
            return None
        return estimator.rate(self._proxy.kernel.now())

    # ------------------------------------------------------------------
    # PollObserver interface
    # ------------------------------------------------------------------
    def on_poll_complete(
        self, object_id: ObjectId, now: Seconds, modified: bool,
        snapshot: ObjectSnapshot, first_unseen: Optional[Seconds],
        updates_since: Optional[int],
    ) -> None:
        estimator = self._estimators.get(object_id)
        if estimator is None:
            estimator = UpdateRateEstimator(smoothing=self._rate_smoothing)
            self._estimators[object_id] = estimator
        if object_id not in self._last_rate_sample:
            # First poll establishes the sampling baseline.
            self._last_rate_sample[object_id] = now
        elif modified:
            interval = now - self._last_rate_sample[object_id]
            if updates_since and interval > 0:
                # History extension: the poll reveals the exact number of
                # updates since the last sampled poll.  The interval spans
                # back across intervening *unmodified* polls so that
                # zero-update stretches are counted — sampling only on
                # modified polls would bias the rate upward.
                estimator.observe_update_count(
                    updates_since, interval, snapshot.last_modified
                )
            else:
                estimator.observe_modification(snapshot.last_modified)
            self._last_rate_sample[object_id] = now
        if not modified:
            return
        if self._mode is MutualTemporalMode.NONE:
            return
        if self._triggering:
            # This poll was itself a triggered poll being processed
            # within an ongoing trigger cascade; do not re-trigger from
            # it (the δ window rule would suppress it anyway, but this
            # guard keeps the cascade bounded and the logs clean).
            return
        self._consider_partners(object_id, now)

    # ------------------------------------------------------------------
    # Trigger logic
    # ------------------------------------------------------------------
    def _consider_partners(self, source: ObjectId, now: Seconds) -> None:
        for group in self._groups.groups_of(source):
            for target in group.partners_of(source):
                decision = self._decide(now, source, target, group)
                self._decisions.append(decision)
                self.counters.increment("considerations")
                if not decision.triggered:
                    name = _SUPPRESSED_COUNTER_NAMES.get(decision.reason)
                    if name is None:
                        name = f"suppressed_{decision.reason}"
                        _SUPPRESSED_COUNTER_NAMES[decision.reason] = name
                    self.counters.increment(name)
                    continue
                self.counters.increment("triggered_polls")
                self._triggering = True
                try:
                    self._proxy.trigger_poll(
                        target, reason=PollReason.MUTUAL_TRIGGER
                    )
                finally:
                    self._triggering = False

    def _decide(
        self,
        now: Seconds,
        source: ObjectId,
        target: ObjectId,
        group: GroupSpec,
    ) -> TriggerDecision:
        delta = group.mutual_delta
        source_rate = self.rate_of(source)
        target_rate = self.rate_of(target)

        try:
            refresher = self._proxy.refresher_for(target)
        except Exception:
            return TriggerDecision(
                now, source, target, False, "unregistered",
                source_rate, target_rate,
            )

        # Section 3.2: "an additional poll is triggered for an object
        # only if its next/previous poll instant is more than δ time
        # units away".
        since_last = refresher.seconds_since_last_poll(now)
        if since_last is not None and since_last <= delta:
            return TriggerDecision(
                now, source, target, False, "recent_poll",
                source_rate, target_rate,
            )
        until_next = refresher.seconds_until_next_poll(now)
        if until_next is not None and until_next <= delta:
            return TriggerDecision(
                now, source, target, False, "upcoming_poll",
                source_rate, target_rate,
            )

        if self._mode is MutualTemporalMode.HEURISTIC:
            if not self._rate_qualifies(source_rate, target_rate):
                return TriggerDecision(
                    now, source, target, False, "slower_rate",
                    source_rate, target_rate,
                )

        return TriggerDecision(
            now, source, target, True, "triggered", source_rate, target_rate
        )

    def _rate_qualifies(
        self, source_rate: Optional[float], target_rate: Optional[float]
    ) -> bool:
        """Heuristic gate: does the target change as fast as the source?

        Unknown rates qualify — until both estimators have data, the
        heuristic must not silently drop synchrony (it would otherwise
        start every run by violating guarantees).
        """
        if source_rate is None or target_rate is None:
            return True
        return target_rate >= self._rate_ratio_threshold * source_rate


def make_mutual_temporal_coordinator(
    proxy: ProxyCache,
    groups: GroupRegistry,
    mode: str,
    **kwargs: Any,
) -> MutualTemporalCoordinator:
    """Build a coordinator from a mode string (none/triggered/heuristic)."""
    return MutualTemporalCoordinator(
        proxy, groups, mode=MutualTemporalMode(mode), **kwargs
    )
