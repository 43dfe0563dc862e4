"""Shared helpers for the benchmark suite.

Each benchmark module regenerates one table or figure from the paper,
prints the rows/series the paper reports (run pytest with ``-s`` to see
them), and asserts the qualitative *shape* of the result — who wins, by
roughly what factor, where the crossovers fall.  Absolute numbers differ
from the paper (our substrate is a calibrated synthetic workload, not
the authors' 2000-era traces); shapes are what reproduction means here.

Every entry point goes through :func:`run_once`, which calls it exactly
once and forwards the suite-wide parallelism knob: ``pytest
benchmarks/bench_*.py --workers 4`` makes each experiment fan its
independent simulation points across that many worker processes.
Results are row-for-row identical to serial runs — the executor seam in
:mod:`repro.api.executors` guarantees ordering and per-point
seeding — so the shape assertions are parallelism-agnostic.

Nothing here is timed: one run of one experiment swings ±30% between
identical trees.  Host time is measured by ``python
benchmarks/e2e/run.py`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import inspect

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--workers",
        type=int,
        default=None,
        help=(
            "fan each regenerator's independent simulation points across "
            "N worker processes (default: serial)"
        ),
    )


@pytest.fixture
def workers(request):
    """The suite-wide worker count: ``--workers``, else ``None`` (serial)."""
    value = request.config.getoption("--workers")
    if value is not None and value < 1:
        raise pytest.UsageError(f"--workers must be >= 1, got {value}")
    return value


def _accepts_workers(func) -> bool:
    try:
        return "workers" in inspect.signature(func).parameters
    except (TypeError, ValueError):
        return False


@pytest.fixture
def run_once(workers):
    """Call a regenerator once, forwarding the suite-wide ``workers`` knob.

    ``workers`` is injected into any callable whose signature accepts
    it (an explicit ``workers=`` in the call wins).
    """

    def runner(func, *args, **kwargs):
        if (
            workers is not None
            and "workers" not in kwargs
            and _accepts_workers(func)
        ):
            kwargs["workers"] = workers
        return func(*args, **kwargs)

    return runner
