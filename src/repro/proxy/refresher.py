"""The TTR-driven refresh scheduler.

One :class:`Refresher` per registered object: it *is* the object's
refresh timer (the kernel dispatches a TTR expiry straight to it), asks
the policy for the next TTR after every poll, and exposes the
next/previous poll instants that the mutual-consistency coordinators
consult (Section 3.2: "an additional poll is triggered for an object
only if its next/previous poll instant is more than δ time units
away").

Fast-forward mode: the analytic engine in :mod:`repro.sim.fastforward`
detaches the refresher from its kernel timer (:meth:`detach_timer`).
While detached, re-arming is pure arithmetic — the next poll instant is
recorded on the refresher and reported through a reschedule hook
instead of allocating a kernel event — and the engine delivers expiries
directly via :meth:`fire_expired`.  Every other observable effect of a
poll (policy feeding, last-poll bookkeeping, coordinator-visible
next/previous instants) is identical in both modes.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Optional

from repro.consistency.base import RefreshPolicy
from repro.core.errors import SimulationError
from repro.core.events import PollReason
from repro.core.types import ObjectId, PollOutcome, Seconds
from repro.sim.kernel import Kernel
from repro.sim.timers import OneShotTimer

#: Issues a poll; invoked by the refresher when the TTR expires or a
#: coordinator forces an early refresh.  The proxy wires this to its
#: internal poll path; the refresher ignores what it returns.
PollIssuer = Callable[[ObjectId, PollReason], object]

#: The reason every timer-driven poll carries, bound once (a member read
#: through its enum class is slow on CPython 3.11).
_TTR_EXPIRED = PollReason.TTR_EXPIRED

#: Fast-forward hook: called with (refresher, next poll time) whenever a
#: detached refresher re-arms — or with ``None`` when it disarms — so
#: the engine can queue the new instant or cancel the queued one.
RescheduleHook = Callable[["Refresher", Optional[Seconds]], None]


class Refresher(OneShotTimer):
    """Drives periodic refreshes for one cached object."""

    __slots__ = (
        "_object_id",
        "_policy",
        "_issue_poll",
        "_last_poll_time",
        "_stopped",
        "_detached",
        "_ff_next_poll",
        "_ff_hook",
    )

    def __init__(
        self,
        kernel: Kernel,
        object_id: ObjectId,
        policy: RefreshPolicy,
        issue_poll: PollIssuer,
    ) -> None:
        super().__init__(kernel, f"refresh.{object_id}")
        self._object_id = object_id
        self._policy = policy
        self._issue_poll = issue_poll
        self._last_poll_time: Optional[Seconds] = None
        self._stopped = False
        self._detached = False
        self._ff_next_poll: Optional[Seconds] = None
        self._ff_hook: Optional[RescheduleHook] = None

    # ------------------------------------------------------------------
    # Arming (a kernel event, or arithmetic while detached)
    # ------------------------------------------------------------------
    def _ff_arm(self, when: Optional[Seconds]) -> None:
        """Detached re-arm at ``when`` (``None`` disarms): no kernel event."""
        self._ff_next_poll = when
        hook = self._ff_hook
        assert hook is not None
        hook(self, when)

    def disarm(self) -> None:
        """Cancel the pending refresh, attached or detached."""
        if self._detached:
            self._ff_arm(None)
        else:
            super().disarm()

    def _bad_ttr(self, ttr: Seconds) -> SimulationError:
        return SimulationError(
            f"policy {self._policy.name!r} returned TTR {ttr!r} for "
            f"{self._object_id!r}; a TTR must be > 0 (inf leaves it unarmed)"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the first refresh, ``policy.first_ttr()`` from now.

        A policy returning an infinite TTR (e.g. ``PassivePolicy``)
        leaves the timer unarmed — refreshes then only happen when a
        coordinator calls :meth:`poll_now`.  Any other TTR not > 0 (NaN
        included) raises: it would stall this object's polling or the kernel.
        """
        ttr = self._policy.first_ttr()
        if 0.0 < ttr < inf:
            when = self._kernel.now() + ttr
            if self._detached:
                self._ff_arm(when)
            else:
                self.arm_at(when)
        elif ttr != inf:
            raise self._bad_ttr(ttr)

    def stop(self) -> None:
        """Permanently stop refreshing this object."""
        self._stopped = True
        self.disarm()

    def recover(self) -> None:
        """Proxy-failure recovery: reset the policy and restart polling.

        Implements the paper's recovery procedure — the policy's
        adaptive state is dropped (TTR back to TTR_min for LIMD) and the
        next poll is scheduled at the policy's fresh first TTR.
        """
        if self._stopped:
            return
        self._policy.reset()
        self.disarm()
        self.start()

    @property
    def stopped(self) -> bool:
        return self._stopped

    # ------------------------------------------------------------------
    # Fast-forward mode (see repro.sim.fastforward)
    # ------------------------------------------------------------------
    @property
    def detached(self) -> bool:
        """True while the analytic engine owns this refresher's schedule."""
        return self._detached

    def detach_timer(self, on_reschedule: RescheduleHook) -> Optional[Seconds]:
        """Enter fast-forward mode: disarm the kernel timer.

        Subsequent re-arms become arithmetic updates reported through
        ``on_reschedule`` instead of kernel events.  Returns the poll
        instant the timer was armed for (``None`` if unarmed), which
        becomes the engine's first queue entry for this refresher.
        """
        if self._detached:
            raise SimulationError(
                f"refresher for {self._object_id!r} is already detached"
            )
        when = self.next_fire_time
        self.disarm()
        self._detached = True
        self._ff_hook = on_reschedule
        self._ff_next_poll = when
        return when

    def reattach_timer(self) -> None:
        """Leave fast-forward mode, re-arming the kernel timer if due."""
        if not self._detached:
            return
        when = self._ff_next_poll
        self._detached = False
        self._ff_hook = None
        self._ff_next_poll = None
        if when is not None and not self._stopped:
            self.arm_at(when)

    def fire_expired(self) -> None:
        """Deliver the TTR expiry the detached timer would have fired.

        Called by the fast-forward engine after advancing the kernel
        clock to the scheduled poll instant; mirrors the timer callback
        exactly (the pending instant is consumed, then the poll issues
        and :meth:`on_poll_complete` re-arms).
        """
        if not self._detached:
            raise SimulationError(
                f"fire_expired on attached refresher for {self._object_id!r}"
            )
        if self._stopped:
            return
        self._ff_next_poll = None
        self._issue_poll(self._object_id, _TTR_EXPIRED)

    # ------------------------------------------------------------------
    # Coordinator-facing state
    # ------------------------------------------------------------------
    @property
    def object_id(self) -> ObjectId:
        return self._object_id

    @property
    def policy(self) -> RefreshPolicy:
        return self._policy

    @property
    def next_poll_time(self) -> Optional[Seconds]:
        """Absolute time of the next scheduled poll (None if unarmed)."""
        if self._detached:
            return self._ff_next_poll
        return self.next_fire_time

    @property
    def last_poll_time(self) -> Optional[Seconds]:
        """When this object was last polled (by timer or trigger)."""
        return self._last_poll_time

    def seconds_since_last_poll(self, now: Seconds) -> Optional[Seconds]:
        if self._last_poll_time is None:
            return None
        return now - self._last_poll_time

    def seconds_until_next_poll(self, now: Seconds) -> Optional[Seconds]:
        when = self.next_poll_time
        if when is None:
            return None
        return when - now

    # ------------------------------------------------------------------
    # Poll plumbing
    # ------------------------------------------------------------------
    def poll_now(self, reason: PollReason, *, reschedule: bool = True) -> None:
        """Issue an immediate poll (used for triggered refreshes).

        With ``reschedule=True`` the pending timer is disarmed first and
        :meth:`on_poll_complete` re-arms it from the policy's new TTR —
        the poll *replaces* the next scheduled one.  With
        ``reschedule=False`` the poll is purely *additional*: the
        object's own refresh schedule and policy state are untouched
        (the paper's Section 3.2 triggered polls are extra polls on top
        of the LIMD schedule).
        """
        if self._stopped:
            return
        if reschedule:
            self.disarm()
        self._issue_poll(self._object_id, reason)

    def on_triggered_poll(self, outcome: PollOutcome) -> None:
        """Record an additional (non-rescheduling) poll.

        Updates the last-poll bookkeeping (the δ suppression window in
        Section 3.2 counts any poll) without feeding the policy or
        touching the timer.
        """
        self._last_poll_time = outcome.poll_time

    def on_poll_complete(self, outcome: PollOutcome) -> None:
        """Feed a poll outcome to the policy and re-arm ``next_ttr`` later
        (a TTR that is not positive raises, as in :meth:`start`)."""
        now = outcome.poll_time
        self._last_poll_time = now
        ttr = self._policy.next_ttr(outcome)
        if 0.0 < ttr < inf:
            if self._stopped:
                return
            # As in start(), inline: a shared helper is a frame per poll.
            if self._detached:
                self._ff_arm(now + ttr)
            else:
                # OneShotTimer.arm_at's body, for the same reason.
                event = self._event
                if (
                    event is not None
                    and event.generation == self._generation
                    and not event.fired
                    and not event.cancelled
                ):
                    event.cancelled = True
                event = self._kernel.schedule_raw(now + ttr, self._fire, self._label)
                self._event = event
                self._generation = event.generation
        elif ttr != inf:
            raise self._bad_ttr(ttr)

    def _fire(self, kernel: Kernel) -> None:
        if not self._stopped:
            self._issue_poll(self._object_id, _TTR_EXPIRED)

    def __repr__(self) -> str:
        return (
            f"Refresher({self._object_id!r}, policy={self._policy.name}, "
            f"next={self.next_poll_time})"
        )
