"""Discrete-event simulation kernel and supporting utilities."""

from repro.sim.kernel import EventHandle, Kernel
from repro.sim.stats import Counter
from repro.sim.timers import PeriodicTimer, RestartableTimer
from repro.sim.tracing import EventLog

__all__ = [
    "EventHandle",
    "Kernel",
    "Counter",
    "PeriodicTimer",
    "RestartableTimer",
    "EventLog",
]
