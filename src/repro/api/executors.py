"""The pluggable serial/parallel executors that run sweep points.

Every figure in the paper's evaluation is a sweep over a tolerance
(Δ or δ): run the simulation once per value, extract metric columns,
collect rows.  The sweep is driven by
:func:`repro.scenarios.engine.run_scenario` and its rows live on
:class:`~repro.scenarios.engine.ScenarioResult`; execution is
delegated to a :class:`SweepExecutor`:

* :class:`SerialExecutor` runs points in-process, one after another —
  the default, and the reference behaviour.
* :class:`ParallelExecutor` fans points out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Sweep points are
  independent simulations, so this scales figure reproduction across
  cores.  Results are collected **in submission order** regardless of
  completion order, so serial and parallel runs of the same sweep
  produce row-for-row identical output.  The pool machinery
  (``concurrent.futures``, ``multiprocessing`` and what they pull in)
  is imported on the first batch that actually fans out, so a serial
  run never loads it.  A worker that dies raises
  :class:`~repro.core.errors.WorkerDiedError`, an
  :class:`~repro.core.errors.ExperimentError`.

For the parallel path every sweep point must be a *picklable run-spec*:
the point function has to be a module-level function (or a
:func:`functools.partial` over one) whose bound arguments pickle —
materialise traces once up front and bind them with ``partial`` rather
than capturing them in a closure.  Policy *factories* are closures and
do not pickle; pass their parameters and rebuild the factory inside the
point function.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, TypeVar

from repro.core.errors import WorkerDiedError

if TYPE_CHECKING:
    from concurrent.futures import Future

#: Generic task/result types of the executor seam: ``map`` preserves the
#: relationship between what goes in and what comes out, so callers
#: (:func:`repro.scenarios.engine.run_scenario` over axis values,
#: :func:`repro.api.runs.run_many` over builder-produced run-specs)
#: type-check end to end.
T = TypeVar("T")
R = TypeVar("R")


class SweepExecutor:
    """Strategy for running a batch of independent tasks.

    Implementations must return results **in input order** — callers
    rely on row N corresponding to swept value N even when point
    runtimes vary wildly (small Δ sweeps cost far more than large Δ).
    """

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, returning ordered results."""
        raise NotImplementedError


class SerialExecutor(SweepExecutor):
    """Run every task in-process, sequentially — the reference executor."""

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]


class ParallelExecutor(SweepExecutor):
    """Fan tasks out over a process pool, preserving input order.

    ``fn`` and every item must be picklable (see the module docstring
    for the run-spec discipline).  Futures are collected in submission
    order, so results are ordered even when later points finish first.
    Falls back to in-process execution, importing no pool machinery,
    for batches of one and for ``workers=1``.  A worker
    that dies (killed, ``os._exit``, out of memory) takes every
    unfinished point with it; that surfaces as one
    :class:`~repro.core.errors.WorkerDiedError` naming the first of
    them.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers or os.cpu_count() or 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if len(items) <= 1 or self.workers == 1:
            return [fn(item) for item in items]
        # Imported here, not at module level: the pool machinery costs
        # some thirty stdlib modules (multiprocessing, socket, subprocess,
        # pickle, ...) that a serial run never calls.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        futures: List[Future[R]] = []
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(items))
        ) as pool:
            try:
                for item in items:
                    futures.append(pool.submit(fn, item))
                return [future.result() for future in futures]
            except BrokenProcessPool as exc:
                # A broken pool fails every future that had not finished
                # with this same exception (and refuses new submissions).
                index = next(
                    (
                        i
                        for i, future in enumerate(futures)
                        if isinstance(future.exception(), BrokenProcessPool)
                    ),
                    len(futures),
                )
                raise WorkerDiedError(
                    "a worker process died before every point finished; "
                    f"the first unfinished is item {index}: {items[index]!r}"
                ) from exc


def executor_for(workers: Optional[int]) -> SweepExecutor:
    """Resolve the ``workers=`` knob into an executor.

    ``None`` or ``1`` means serial and anything larger a process pool
    of that size.
    """
    if workers is None or workers == 1:
        return SerialExecutor()
    return ParallelExecutor(workers)
