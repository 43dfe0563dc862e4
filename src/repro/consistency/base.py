"""Policy interfaces for cache-consistency mechanisms.

A *refresh policy* is the per-object brain that, after each poll,
decides how long to wait until the next poll (the TTR — time to
refresh).  The proxy's refresher owns the timer; the policy owns the
adaptation logic.  This separation mirrors the paper's architecture:
"all of our cache consistency mechanisms compute TTR values for each
cached object" (Section 5).

Mutual-consistency mechanisms layer *on top of* individual policies
(Section 2 stresses this separation); they are modelled as coordinators
that observe poll outcomes and may trigger extra polls for related
objects.  See :mod:`repro.consistency.mutual_temporal` and
:mod:`repro.consistency.mutual_value`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.core.types import ObjectId, ObjectSnapshot, Seconds


@dataclass(frozen=True)
class ViolationJudgement:
    """A policy-side assessment of whether a poll revealed a violation.

    ``observed_out_sync`` is the policy's estimate of how long the cached
    copy had been stale beyond its bound when the poll occurred; the
    adaptive multiplicative-decrease factor (m = Δ / out-sync) uses it.
    """

    violated: bool
    observed_out_sync: Optional[Seconds] = None
    #: Human-readable tag of the detection path.
    basis: str = ""


class RefreshPolicy(abc.ABC):
    """Per-object adaptive TTR computation.

    Implementations are stateful and single-object; a fresh instance is
    created per (object, experiment) via a factory callable.
    """

    #: Short machine-readable policy name (used in results tables).
    name: str = "abstract"

    @abc.abstractmethod
    def first_ttr(self) -> Seconds:
        """TTR to use after the initial fetch."""

    @abc.abstractmethod
    def next_ttr(
        self, now: Seconds, modified: bool, snapshot: ObjectSnapshot,
        first_unseen: Optional[Seconds], updates_since: Optional[int],
    ) -> Seconds:
        """Consume a poll and return the TTR until the next poll.

        The poll's fields arrive positionally, as they do at a detector's
        ``judge`` and an observer: when it was issued; whether it got a
        new version (a 200, not a 304); the snapshot now cached; the time
        of the first update since the previous poll and how many there
        were (both ``None`` without the §5.1 history extension or on a
        304).  ``inf`` leaves the object unarmed; a TTR that is not a
        number > 0 raises a ``SimulationError`` naming the policy.
        """

    @property
    @abc.abstractmethod
    def current_ttr(self) -> Seconds:
        """The most recently computed TTR."""

    def reset(self) -> None:
        """Discard adaptive state after a proxy failure.

        The paper highlights LIMD's minimal state as a resilience
        feature: "recovering from a proxy failure simply involves
        reseting the TTRs of all objects to TTR_min".  Stateless
        policies need do nothing; adaptive policies drop their learned
        state and restart conservatively.
        """


#: Factory signature used when registering objects with the proxy.
PolicyFactory = Callable[[ObjectId], RefreshPolicy]


class PollObserver(Protocol):
    """Anything that wants to see poll outcomes as they happen.

    Mutual-consistency coordinators implement this to react to detected
    updates (Section 3.2: "upon detecting an update ... the proxy
    triggers polls for all other related objects").
    """

    def on_poll_complete(
        self, object_id: ObjectId, now: Seconds, modified: bool,
        snapshot: ObjectSnapshot, first_unseen: Optional[Seconds],
        updates_since: Optional[int],
    ) -> None:
        """The object's id, then the poll's fields as ``next_ttr`` gets them."""
        ...  # pragma: no cover - protocol definition


@dataclass
class FixedTTRPolicy(RefreshPolicy):
    """Degenerate policy: always the same TTR.

    This *is* the paper's baseline approach for Δt-consistency ("the
    object was periodically polled every Δ time units"), and a useful
    control in tests.
    """

    ttr: Seconds
    name: str = "fixed"

    def __post_init__(self) -> None:
        if not self.ttr > 0:  # a NaN TTR fails too
            raise ValueError(f"ttr must be positive, got {self.ttr}")

    def first_ttr(self) -> Seconds:
        return self.ttr

    def next_ttr(
        self, now: Seconds, modified: bool, snapshot: ObjectSnapshot,
        first_unseen: Optional[Seconds], updates_since: Optional[int],
    ) -> Seconds:
        return self.ttr

    @property
    def current_ttr(self) -> Seconds:
        return self.ttr


def fixed_policy_factory(ttr: Seconds) -> PolicyFactory:
    """Factory for the baseline fixed-interval poller."""

    def make(_object_id: ObjectId) -> RefreshPolicy:
        return FixedTTRPolicy(ttr=ttr)

    return make


class PassivePolicy(RefreshPolicy):
    """A policy that never schedules a refresh (TTR = ∞).

    Used for objects whose refreshes are driven entirely by an external
    coordinator — e.g. the adaptive-f Mv approach polls both members of
    a pair on the *virtual object's* schedule, so the members' own
    refreshers stay dormant.
    """

    name = "passive"

    def first_ttr(self) -> Seconds:
        return float("inf")

    def next_ttr(
        self, now: Seconds, modified: bool, snapshot: ObjectSnapshot,
        first_unseen: Optional[Seconds], updates_since: Optional[int],
    ) -> Seconds:
        return float("inf")

    @property
    def current_ttr(self) -> Seconds:
        return float("inf")


def passive_policy_factory() -> PolicyFactory:
    """Factory for :class:`PassivePolicy` (coordinator-driven objects)."""

    def make(_object_id: ObjectId) -> RefreshPolicy:
        return PassivePolicy()

    return make
