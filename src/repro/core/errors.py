"""Exception hierarchy for the reproduction library.

All library-raised exceptions derive from :class:`ReproError`, so callers
can catch one base class.  Validation of plain parameter values raises
the built-in ``ValueError``/``KeyError``/``TypeError`` as usual; these
classes cover *domain* failures (simulation misuse, unknown objects,
malformed traces, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly.

    Examples: scheduling an event in the past, running a kernel that was
    already exhausted, or cancelling an event twice.
    """


class SchedulingInPastError(SimulationError):
    """An event was scheduled before the current simulation time."""

    def __init__(self, now: float, when: float) -> None:
        super().__init__(
            f"cannot schedule event at t={when} before current time t={now}"
        )
        self.now = now
        self.when = when


class UnknownObjectError(ReproError, KeyError):
    """An object id was not found at the server or proxy."""

    def __init__(self, object_id: str, where: str = "store") -> None:
        super().__init__(f"unknown object {object_id!r} in {where}")
        self.object_id = object_id
        self.where = where


class UnknownGroupError(ReproError, KeyError):
    """A group id was not found in the group registry."""

    def __init__(self, group_id: str) -> None:
        super().__init__(f"unknown group {group_id!r}")
        self.group_id = group_id


class TraceFormatError(ReproError):
    """A trace file or trace was malformed."""


class TraceOrderingError(TraceFormatError):
    """Trace update times were not strictly increasing."""

    def __init__(self, index: int, prev_time: float, time: float) -> None:
        super().__init__(
            f"trace update {index} at t={time} does not follow the previous "
            f"update at t={prev_time}"
        )
        self.index = index
        self.prev_time = prev_time
        self.time = time


class PolicyConfigurationError(ReproError):
    """A consistency policy was constructed with invalid parameters."""


class CacheConfigurationError(ReproError):
    """The proxy cache was configured inconsistently."""


class ProtocolError(ReproError):
    """A simulated HTTP exchange violated the protocol model."""


class ExperimentError(ReproError):
    """An experiment harness was misconfigured or failed to run."""


class WorkerDiedError(ExperimentError):
    """A worker process died before its points finished.

    A failure of the run, not of its configuration: the CLI reports it
    as ``run failed`` (exit 1) where configuration errors exit 2.
    """
