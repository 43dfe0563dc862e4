"""Discrete-event simulation kernel and supporting utilities."""

from repro.sim.kernel import EventHandle, Kernel
from repro.sim.stats import (
    Counter,
    Histogram,
    SummarySnapshot,
    SummaryStats,
    TimeWeightedValue,
)
from repro.sim.timers import PeriodicTimer, RestartableTimer
from repro.sim.tracing import EventLog

__all__ = [
    "EventHandle",
    "Kernel",
    "Counter",
    "Histogram",
    "SummarySnapshot",
    "SummaryStats",
    "TimeWeightedValue",
    "PeriodicTimer",
    "RestartableTimer",
    "EventLog",
]
