"""Shared helpers for the benchmark suite.

Each benchmark module regenerates one table or figure from the paper,
prints the rows/series the paper reports (run pytest with ``-s`` to see
them), and asserts the qualitative *shape* of the result — who wins, by
roughly what factor, where the crossovers fall.  Absolute numbers differ
from the paper (our substrate is a calibrated synthetic workload, not
the authors' 2000-era traces); shapes are what reproduction means here.

Benchmarks execute each experiment exactly once (``rounds=1``): the
interesting measurement is the experiment output, and the wall-clock
time recorded by pytest-benchmark documents the cost of regenerating it.

Every entry point goes through :func:`run_once`, which forwards the
suite-wide parallelism knob: ``pytest benchmarks/ --workers 4`` (or
``REPRO_WORKERS=4``) makes each experiment fan its independent
simulation points across that many worker processes.  Results are
row-for-row identical to serial runs — the executor seam in
:mod:`repro.experiments.sweep` guarantees ordering and per-point
seeding — so the shape assertions are parallelism-agnostic.
"""

from __future__ import annotations

import inspect
import os

import pytest

from repro.sim import kernel as _kernel_module


def pytest_addoption(parser):
    parser.addoption(
        "--workers",
        type=int,
        default=None,
        help=(
            "fan each benchmark's independent simulation points across "
            "N worker processes (default: serial; REPRO_WORKERS env var "
            "is the fallback)"
        ),
    )


@pytest.fixture
def workers(request):
    """The suite-wide worker count: --workers, else $REPRO_WORKERS, else None."""
    value = None
    try:
        value = request.config.getoption("--workers")
    except ValueError:
        pass
    if value is None:
        env = os.environ.get("REPRO_WORKERS")
        if env:
            try:
                value = int(env)
            except ValueError:
                raise pytest.UsageError(
                    f"REPRO_WORKERS must be an integer, got {env!r}"
                ) from None
    if value is not None and value < 1:
        raise pytest.UsageError(
            f"--workers/REPRO_WORKERS must be >= 1, got {value}"
        )
    return value


def _accepts_workers(func) -> bool:
    try:
        return "workers" in inspect.signature(func).parameters
    except (TypeError, ValueError):
        return False


@pytest.fixture
def run_once(benchmark, workers):
    """Run a callable exactly once under pytest-benchmark timing.

    Injects the suite-wide ``workers`` knob into any experiment whose
    signature accepts it (explicit ``workers=`` in the call wins), and
    records simulation throughput in ``benchmark.extra_info``
    uniformly for every benchmark:

    * ``events_processed`` — kernel events run in this process during
      the benchmark (with ``workers`` > 1 the sweep points execute in
      worker processes, so this counts only main-process events);
    * ``events_per_sec`` — ``events_processed`` over the timed wall
      clock (0.0 when nothing ran in-process);
    * ``workers`` — the effective parallelism knob (1 = serial).
    """

    def runner(func, *args, **kwargs):
        if (
            workers is not None
            and "workers" not in kwargs
            and _accepts_workers(func)
        ):
            kwargs["workers"] = workers
        events_before = _kernel_module.total_events_processed()
        result = benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )
        events = _kernel_module.total_events_processed() - events_before
        elapsed = None
        stats = getattr(benchmark, "stats", None)
        if stats is not None:  # absent under --benchmark-disable
            elapsed = stats.stats.total
        benchmark.extra_info["events_processed"] = events
        benchmark.extra_info["events_per_sec"] = (
            events / elapsed if elapsed else 0.0
        )
        benchmark.extra_info["workers"] = workers if workers is not None else 1
        return result

    return runner
