"""Timer helpers built on the kernel.

The proxy refreshers are *rescheduleable* one-shot timers: a TTR
expires, the policy computes the next TTR, and the timer is re-armed.
``OneShotTimer`` holds that pattern's bookkeeping, ``RestartableTimer``
delivers its expiries to a callback, and ``PeriodicTimer`` covers
fixed-interval polling (the paper's baseline approach).

All of them ride the kernel's allocation-free scheduling path
(:meth:`~repro.sim.kernel.Kernel.schedule_raw`): instead of taking an
:class:`~repro.sim.kernel.EventHandle` per arm, a timer holds the bare
pooled event record plus the generation it was issued under, and
cancels by flagging the record directly.  A generation mismatch means
the record was recycled for someone else's event — i.e. this timer's
firing already happened — so the reference is simply dropped.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.errors import SimulationError
from repro.core.types import Seconds
from repro.sim.kernel import EventCallback, Kernel, _Event

#: Callback invoked when a timer fires.  Receives the fire time.
TimerCallback = Callable[[Seconds], None]


class OneShotTimer:
    """The re-armable pending-event bookkeeping under every timer.

    Holds at most one kernel event and arms, moves and cancels it.  On
    expiry the kernel calls ``on_expiry``, which each subclass supplies:
    its own ``_fire`` method, or — for the proxy's ``Refresher`` — the
    proxy's poll issuer, so no timer frame runs between kernel and poll.
    """

    __slots__ = ("_kernel", "_label", "_event", "_generation", "_on_expiry")

    def __init__(self, kernel: Kernel, label: str, on_expiry: EventCallback) -> None:
        self._kernel = kernel
        self._label = label
        self._event: Optional[_Event] = None
        self._generation = 0
        self._on_expiry = on_expiry

    @property
    def armed(self) -> bool:
        """True if the timer is currently waiting to fire."""
        return self.next_fire_time is not None

    @property
    def next_fire_time(self) -> Optional[Seconds]:
        """The absolute time of the next firing, or None if unarmed."""
        event = self._event
        if (
            event is not None
            and event.generation == self._generation
            and not event.fired
            and not event.cancelled
        ):
            return event.time
        return None

    def arm_at(self, when: Seconds) -> None:
        """Arm (or re-arm) the timer to fire at absolute time ``when``."""
        event = self._event
        if (
            event is not None
            and event.generation == self._generation
            and not event.fired
            and not event.cancelled
        ):
            event.cancelled = True
        event = self._kernel.schedule_raw(when, self._on_expiry, self._label)
        self._event = event
        self._generation = event.generation

    def arm_after(self, delay: Seconds) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        self.arm_at(self._kernel.now() + delay)

    def disarm(self) -> None:
        """Cancel any pending firing.  Safe to call when unarmed."""
        event = self._event
        if event is not None:
            if (
                event.generation == self._generation
                and not event.fired
                and not event.cancelled
            ):
                event.cancelled = True
            self._event = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(label={self._label!r}, "
            f"next={self.next_fire_time})"
        )


class RestartableTimer(OneShotTimer):
    """A one-shot timer that can be re-armed or rescheduled.

    Each firing hands the fire time to ``callback``, which typically
    computes the next interval and re-arms.
    """

    __slots__ = ("_callback",)

    def __init__(self, kernel: Kernel, callback: TimerCallback, *, label: str = "") -> None:
        super().__init__(kernel, label, self._fire)
        self._callback = callback

    def _fire(self, kernel: Kernel) -> None:
        self._event = None
        self._callback(kernel.now())


class PeriodicTimer(OneShotTimer):
    """A fixed-interval repeating timer (the paper's baseline poller).

    Fires first at ``start + period`` (or at ``start`` when
    ``fire_immediately`` is set), then every ``period`` seconds until
    stopped or until ``stop_after`` is reached.
    """

    __slots__ = ("_period", "_callback", "_stop_after", "_fire_count", "_stopped")

    def __init__(
        self,
        kernel: Kernel,
        period: Seconds,
        callback: TimerCallback,
        *,
        fire_immediately: bool = False,
        stop_after: Optional[Seconds] = None,
        label: str = "",
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if stop_after is not None and stop_after < kernel.now():
            raise SimulationError(
                f"stop_after={stop_after} precedes current time {kernel.now()}"
            )
        super().__init__(kernel, label, self._fire)
        self._period = period
        self._callback = callback
        self._stop_after = stop_after
        self._fire_count = 0
        self._stopped = False
        self._schedule(kernel.now() if fire_immediately else kernel.now() + period)

    @property
    def period(self) -> Seconds:
        return self._period

    @property
    def fire_count(self) -> int:
        return self._fire_count

    @property
    def running(self) -> bool:
        return not self._stopped and self._event is not None

    def stop(self) -> None:
        """Stop the timer permanently."""
        self._stopped = True
        self.disarm()

    def _schedule(self, when: Seconds) -> None:
        if self._stop_after is None or when <= self._stop_after:
            self.arm_at(when)

    def _fire(self, kernel: Kernel) -> None:
        self._event = None
        if self._stopped:
            return
        self._fire_count += 1
        self._callback(kernel.now())
        if not self._stopped:
            self._schedule(kernel.now() + self._period)

    def __repr__(self) -> str:
        return (
            f"PeriodicTimer(period={self._period}, fired={self._fire_count}, "
            f"running={self.running})"
        )
