"""Mutual consistency in the value domain (paper Section 4.2).

Two approaches for keeping ``|f(Sa, Sb) − f(Pa, Pb)| < δ``:

* **Adaptive-f** (:class:`AdaptiveFCoordinator`) — treat ``f`` as the
  value of a *virtual object*: poll both members together, estimate the
  rate at which f changes (Eq. 11), and schedule the next joint poll at
  ``TTR = γ·δ/r`` (Eq. 12), where the feedback factor γ shrinks on
  violations and recovers gradually.  Works for arbitrary (locally
  near-linear) f.
* **Partitioned-δ** (:class:`PartitionedMvCoordinator`) — when f is the
  difference function, ``|f(S)−f(P)| ≤ |Sa−Pa| + |Pb−Sb|``, so splitting
  δ into δa + δb and enforcing Δv-consistency per object with the
  adaptive-TTR policy implies the mutual bound.  The split is
  re-apportioned periodically: the faster-changing object gets the
  *smaller* tolerance (δa = δ·rb/(ra+rb)).  The paper's pair is a group
  of two; the same coordinator splits δ over n members under a
  :class:`GroupBudget`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.rates import ValueRateEstimator
from repro.consistency.adaptive_value import (
    AdaptiveValueParameters,
    AdaptiveValueTTRPolicy,
)
from repro.consistency.base import PassivePolicy
from repro.core.errors import PolicyConfigurationError
from repro.core.events import PollReason
from repro.core.types import (
    ObjectId,
    ObjectSnapshot,
    Seconds,
    TTRBounds,
    require_fraction,
    require_positive,
)
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.sim.stats import Counter
from repro.sim.timers import RestartableTimer

#: The combining function f over the two object values.
PairFunction = Callable[[float, float], float]


def difference(a: float, b: float) -> float:
    """The paper's canonical f: the difference of the two values."""
    return a - b


@dataclass(frozen=True)
class AdaptiveFParameters:
    """Tunables of the adaptive-f (virtual object) approach.

    Attributes:
        gamma_decrease: Multiplicative shrink applied to γ on violation.
        gamma_increase: Additive recovery applied to γ per clean poll.
        gamma_min: Floor for γ.
        smoothing_weight: ``w`` for smoothing successive TTR estimates.
        alpha: Eq. 10 blend toward the smallest TTR observed.
    """

    gamma_decrease: float = 0.7
    gamma_increase: float = 0.05
    gamma_min: float = 0.1
    smoothing_weight: float = 0.5
    alpha: float = 0.7

    def __post_init__(self) -> None:
        require_fraction("gamma_decrease", self.gamma_decrease, inclusive=False)
        if self.gamma_increase < 0:
            raise PolicyConfigurationError(
                f"gamma_increase must be >= 0, got {self.gamma_increase}"
            )
        require_fraction("gamma_min", self.gamma_min, inclusive=False)
        require_fraction("smoothing_weight", self.smoothing_weight)
        require_fraction("alpha", self.alpha)
        if self.smoothing_weight == 0:
            raise PolicyConfigurationError("smoothing_weight must be > 0")


class AdaptiveFCoordinator:
    """Joint-poll scheduler for a pair, driven by the rate of f.

    The pair's members are registered with :class:`PassivePolicy` (their
    individual refreshers stay dormant); this coordinator issues joint
    polls on its own TTR schedule.

    Call :meth:`setup` once after construction to register the objects
    and start the schedule.
    """

    name = "adaptive_f"

    def __init__(
        self,
        proxy: ProxyCache,
        pair: Tuple[ObjectId, ObjectId],
        delta: float,
        *,
        bounds: TTRBounds,
        f: PairFunction = difference,
        parameters: AdaptiveFParameters = AdaptiveFParameters(),
    ) -> None:
        a, b = pair
        if a == b:
            raise PolicyConfigurationError("pair members must be distinct")
        self._proxy = proxy
        self._pair = pair
        self._delta = require_positive("delta", delta)
        self._bounds = bounds
        self._f = f
        self._parameters = parameters
        self._gamma = 1.0
        self._rate = ValueRateEstimator()
        self._smoothed_ttr: Optional[Seconds] = None
        self._observed_min_ttr: Optional[Seconds] = None
        self._last_f: Optional[float] = None
        self._ttr: Seconds = bounds.ttr_min
        self._timer = RestartableTimer(
            proxy.kernel, self._on_timer, label=f"adaptive_f.{a}+{b}"
        )
        self.counters = Counter()
        self._f_history: List[Tuple[Seconds, float]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def setup(self, server_a: OriginServer, server_b: OriginServer) -> None:
        """Register both members (passive) and start joint polling."""
        a, b = self._pair
        self._proxy.register_object(a, server_a, PassivePolicy())
        self._proxy.register_object(b, server_b, PassivePolicy())
        self._observe_current_f(record_rate=True)
        self._timer.arm_after(self._ttr)

    def stop(self) -> None:
        self._timer.disarm()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def gamma(self) -> float:
        return self._gamma

    @property
    def current_ttr(self) -> Seconds:
        return self._ttr

    @property
    def f_history(self) -> List[Tuple[Seconds, float]]:
        """(time, f at proxy) after every joint poll — Figure 8's proxy
        series."""
        return list(self._f_history)

    # ------------------------------------------------------------------
    # Joint polling
    # ------------------------------------------------------------------
    def _on_timer(self, now: Seconds) -> None:
        previous_f = self._last_f
        a, b = self._pair
        self._proxy.trigger_poll(a, reason=PollReason.MUTUAL_TRIGGER)
        self._proxy.trigger_poll(b, reason=PollReason.MUTUAL_TRIGGER)
        self.counters.increment("joint_polls")
        current_f = self._observe_current_f(record_rate=True)

        violated = (
            previous_f is not None
            and current_f is not None
            and abs(current_f - previous_f) >= self._delta
        )
        self._adjust_gamma(violated)
        self._ttr = self._next_ttr()
        self._timer.arm_after(self._ttr)

    def _observe_current_f(self, *, record_rate: bool) -> Optional[float]:
        a, b = self._pair
        value_a = self._cached_value(a)
        value_b = self._cached_value(b)
        if value_a is None or value_b is None:
            return None
        now = self._proxy.kernel.now()
        current = self._f(value_a, value_b)
        self._last_f = current
        self._f_history.append((now, current))
        if record_rate:
            self._rate.observe(now, current)
        return current

    def _cached_value(self, object_id: ObjectId) -> Optional[float]:
        entry = self._proxy.entry_for(object_id)
        if entry.snapshot is None:
            return None
        return entry.snapshot.value

    def _adjust_gamma(self, violated: bool) -> None:
        params = self._parameters
        if violated:
            self.counters.increment("observed_violations")
            self._gamma = max(params.gamma_min, self._gamma * params.gamma_decrease)
        else:
            self._gamma = min(1.0, self._gamma + params.gamma_increase)

    def _next_ttr(self) -> Seconds:
        """Eq. 12 (TTR = γ·δ/r) refined by smoothing and Eq. 10."""
        rate = self._rate.rate
        if rate is None or rate <= 0:
            raw = self._bounds.ttr_max
        else:
            raw = self._gamma * self._delta / rate
        w = self._parameters.smoothing_weight
        if self._smoothed_ttr is None:
            self._smoothed_ttr = raw
        else:
            self._smoothed_ttr = w * raw + (1.0 - w) * self._smoothed_ttr
        self._observed_min_ttr = (
            self._smoothed_ttr
            if self._observed_min_ttr is None
            else min(self._observed_min_ttr, self._smoothed_ttr)
        )
        alpha = self._parameters.alpha
        blended = alpha * self._smoothed_ttr + (1.0 - alpha) * self._observed_min_ttr
        return self._bounds.clamp(blended)


@dataclass(frozen=True)
class PartitionParameters:
    """Tunables of the partitioned-δ approach.

    Attributes:
        reapportion_interval: How often to recompute the tolerances
            from observed rates, or ``None`` to keep the initial equal
            split (for a pair, the ablation's static 50/50 baseline).
        min_fraction: Floor on each member's share of δ, keeping every
            tolerance strictly positive: ``min_fraction·δ`` under the
            ``PAIRWISE`` budget (for a pair, the paper's clamp of
            δa/δ to [f, 1−f]) and ``min_fraction·δ/n`` under ``SUM``.
        value_parameters: Parameters for the per-object adaptive value
            policies.
    """

    reapportion_interval: Optional[Seconds] = 60.0
    min_fraction: float = 0.05
    value_parameters: AdaptiveValueParameters = AdaptiveValueParameters()

    def __post_init__(self) -> None:
        if self.reapportion_interval is not None and self.reapportion_interval <= 0:
            raise PolicyConfigurationError(
                "reapportion_interval must be positive or None, "
                f"got {self.reapportion_interval}"
            )
        if not 0 < self.min_fraction <= 0.5:
            raise PolicyConfigurationError(
                f"min_fraction must be in (0, 0.5], got {self.min_fraction}"
            )


class GroupBudget(enum.Enum):
    """How a group's tolerance δ constrains the per-object δᵢ.

    The right budget depends on the shape of the mutual function f being
    guaranteed (paper Eq. 5):

    * ``PAIRWISE`` — f compares *pairs* of members (the paper's
      difference function applied pairwise): by the triangle inequality
      it suffices that ``δ_i + δ_j ≤ δ`` for every pair, i.e. the two
      largest tolerances sum to at most δ.  For a pair this is the
      paper's δa + δb = δ.
    * ``SUM`` — f aggregates *all* members (e.g. a team total versus the
      sum of player scores): ``|f(S) − f(P)| ≤ Σ_i |S_i − P_i|`` for any
      f that is 1-Lipschitz in each argument, so the full sum of
      tolerances must stay within δ: ``Σ_i δ_i ≤ δ``.  Stricter (each
      δᵢ smaller), hence more polls.
    """

    PAIRWISE = "pairwise"
    SUM = "sum"


class PartitionedMvCoordinator:
    """Partitioned-δ mutual value consistency for a group of n ≥ 2 objects.

    The paper defines the approach for a pair (Section 4.2) and notes
    that "all our definitions can be generalized to n objects"
    (Section 2): a pair is a group of two.  Only valid when f is
    difference-shaped — the triangle-inequality argument (footnote 3)
    does not hold for arbitrary f.  The guarantee maintained depends on
    ``budget`` (:class:`GroupBudget`): pairwise (``δ_i + δ_j ≤ δ`` for
    all pairs) or sum (``Σ δ_i ≤ δ``, for aggregate f such as a total).

    Call :meth:`setup` once to register every member with its own
    adaptive value policy (an equal initial split) and start the
    periodic re-apportioning.
    """

    name = "partitioned"

    def __init__(
        self,
        proxy: ProxyCache,
        members: Tuple[ObjectId, ...],
        delta: float,
        *,
        bounds: TTRBounds,
        parameters: PartitionParameters = PartitionParameters(),
        budget: GroupBudget = GroupBudget.PAIRWISE,
    ) -> None:
        if len(members) < 2:
            raise PolicyConfigurationError("group needs at least two members")
        if len(set(members)) != len(members):
            raise PolicyConfigurationError("group members must be distinct")
        self._proxy = proxy
        self._members = tuple(members)
        self._delta = require_positive("delta", delta)
        self._bounds = bounds
        self._parameters = parameters
        self._budget = budget
        self._policies: Dict[ObjectId, AdaptiveValueTTRPolicy] = {}
        self._estimators: Dict[ObjectId, ValueRateEstimator] = {
            m: ValueRateEstimator(smoothing=0.3) for m in members
        }
        self._timer = RestartableTimer(
            proxy.kernel,
            self._on_reapportion_timer,
            label="partition." + "+".join(self._members),
        )
        self.counters = Counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def setup(self, servers: Mapping[ObjectId, OriginServer]) -> None:
        """Register every member with an equal initial split."""
        if self._budget is GroupBudget.PAIRWISE:
            initial = self._delta / 2.0  # any pair sums to exactly δ
        else:
            initial = self._delta / len(self._members)  # Σ is exactly δ
        for member in self._members:
            policy = AdaptiveValueTTRPolicy(
                initial,
                bounds=self._bounds,
                parameters=self._parameters.value_parameters,
            )
            self._policies[member] = policy
            self._proxy.register_object(member, servers[member], policy)
        self._proxy.add_observer(self)
        if self._parameters.reapportion_interval is not None:
            self._timer.arm_after(self._parameters.reapportion_interval)

    def stop(self) -> None:
        self._timer.disarm()
        self._proxy.remove_observer(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def members(self) -> Tuple[ObjectId, ...]:
        return self._members

    def current_tolerances(self) -> Dict[ObjectId, float]:
        """The current δᵢ of every member, in member order."""
        return {m: self._policies[m].delta for m in self._members}

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
            return
        value = snapshot.value
        if value is not None:
            estimator.observe(now, value)

    # ------------------------------------------------------------------
    # Re-apportioning
    # ------------------------------------------------------------------
    def _on_reapportion_timer(self, now: Seconds) -> None:
        self.reapportion()
        interval = self._parameters.reapportion_interval
        if interval is not None:
            self._timer.arm_after(interval)

    @property
    def budget(self) -> GroupBudget:
        return self._budget

    def reapportion(self) -> Dict[ObjectId, float]:
        """Recompute tolerances from observed rates.

        Slower members get larger tolerances (inverse-rate weights).
        Nothing changes until every member has a positive rate.
        """
        rates = [self._estimators[m].rate or 0.0 for m in self._members]
        if min(rates) <= 0:
            return self.current_tolerances()
        if self._budget is GroupBudget.PAIRWISE:
            tolerances = self._pairwise_tolerances(rates)
        else:
            tolerances = self._sum_tolerances(rates)
        for member, tolerance in zip(self._members, tolerances):
            self._policies[member].retarget_delta(tolerance)
        self.counters.increment("reapportionments")
        return self.current_tolerances()

    def max_pair_tolerance_sum(self) -> float:
        """The largest δ_i + δ_j over all pairs (the PAIRWISE budget)."""
        tolerances = sorted(self.current_tolerances().values(), reverse=True)
        return tolerances[0] + tolerances[1]

    def tolerance_sum(self) -> float:
        """Σ δ_i over all members (the SUM budget)."""
        return sum(self.current_tolerances().values())

    def _pairwise_tolerances(self, rates: List[float]) -> List[float]:
        """The two slowest members split δ as the paper's pair does.

        With ``(ra, rb)`` their rates in member order and ``f`` the
        floor fraction: ``δa = δ·min(1−f, max(f, rb/(ra+rb)))`` and
        ``δb = δ − δa``.  Every faster member gets its inverse-rate
        share on the same scale, ``δ·ra·rb/((ra+rb)·r)``, floored at
        ``f·δ`` — never more than the smaller of the two, so the two
        largest tolerances still sum to δ.
        """
        delta, floor = self._delta, self._parameters.min_fraction
        i, j = sorted(sorted(range(len(rates)), key=rates.__getitem__)[:2])
        ra, rb = rates[i], rates[j]
        tolerances = [
            max(floor * delta, delta * ra * rb / ((ra + rb) * r)) for r in rates
        ]
        tolerances[i] = delta * min(1.0 - floor, max(floor, rb / (ra + rb)))
        tolerances[j] = delta - tolerances[i]
        return tolerances

    def _sum_tolerances(self, rates: List[float]) -> List[float]:
        """Inverse-rate weights scaled so the tolerances total δ.

        Every tolerance is floored at ``min_fraction · δ / n`` so no
        object is starved, and a floored member's floor comes out of the
        budget the others share, so the total never exceeds δ.
        """
        weights = [1.0 / r for r in rates]
        floor = self._parameters.min_fraction * self._delta / len(weights)
        # Floor first, then scale the rest into what is left.  Each pass
        # pins at least one member and lowers the scale, so pinned
        # members stay pinned; the largest weight always stays free
        # because n · floor ≤ δ/2 (min_fraction ≤ 0.5).
        free = weights
        while True:
            left = self._delta - (len(weights) - len(free)) * floor
            scale = left / sum(free)
            kept = [w for w in free if w * scale >= floor]
            if len(kept) == len(free):
                break
            free = kept
        return [max(floor, w * scale) for w in weights]


#: A combining function over an ordered tuple of n object values
#: (the n-object generalisation of :data:`PairFunction`).
GroupFunction = Callable[[Tuple[float, ...]], float]


def total_minus_parts(values: Tuple[float, ...]) -> float:
    """f for sum-structured groups: last member minus the sum of the rest.

    With members ordered (part₁, ..., partₙ, total) — the convention of
    :class:`repro.traces.sports.MatchTraces` — the server-side f is
    identically zero, so the Eq. 5 guarantee reduces to keeping the
    proxy's cached total within δ of the sum of its cached parts.
    """
    *parts, total = values
    return total - sum(parts)


def group_f_history(
    proxy: ProxyCache,
    members: Tuple[ObjectId, ...],
    f: GroupFunction,
) -> List[Tuple[Seconds, float]]:
    """Reconstruct the step function f(P₁, ..., Pₙ) from n fetch logs.

    f at the proxy is a step function that changes whenever any
    member's cached value changes; knots start once every member has a
    cached value.
    """
    events: List[Tuple[Seconds, ObjectId, float]] = []
    for member in members:
        entry = proxy.entry_for(member)
        for time, snapshot in zip(entry.fetch_times, entry.fetch_snapshots):
            if snapshot.value is not None:
                events.append((time, member, snapshot.value))
    events.sort(key=lambda e: e[0])
    current: Dict[ObjectId, float] = {}
    knots: List[Tuple[Seconds, float]] = []
    for time, member, value in events:
        current[member] = value
        if len(current) < len(members):
            continue
        combined = f(tuple(current[m] for m in members))
        if not knots or knots[-1][1] != combined or knots[-1][0] != time:
            knots.append((time, combined))
    return knots
