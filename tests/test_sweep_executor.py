"""Tests for the sweep executors: serial/parallel parity and ordering.

The contract under test (see :mod:`repro.api.executors`):

* ``executor_for(N).map`` — and therefore ``run_scenario(...,
  workers=N)`` — produces rows **identical** to the serial run — same
  values, same order — because points are independent, seeded per
  point, and collected in submission order;
* executors return results in input order even when later items finish
  first;
* a per-point RNG derived from the root seed is stable no matter which
  executor (or worker) runs the point;
* a worker process that dies surfaces as one ``ExperimentError`` naming
  the first point left unfinished, not a raw ``BrokenProcessPool``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api.executors import ParallelExecutor, SerialExecutor, executor_for
from repro.api.runs import run_many
from repro.core.errors import ExperimentError, WorkerDiedError
from repro.core.rng import RngRegistry, derive_seed
from repro.scenarios.engine import run_scenario
from repro.scenarios.registry import Scenario
from repro.scenarios.spec import ScenarioSpec


def _square_row(value):
    """Module-level point function (picklable for the parallel path)."""
    return {"x": value, "square": value * value}


def _seed_context(params, seed):
    return {"seed": seed}


def _drawing_point(value, *, seed):
    """A point that derives its own RNG stream from the root seed."""
    rng = RngRegistry(derive_seed(seed, f"x[{value}]"))
    return {"draw": rng.stream("noise").random()}


def _drawing_scenario(values):
    return Scenario(
        spec=ScenarioSpec(
            name="_drawing", description="seeded draws", axis="x", values=values
        ),
        point=_drawing_point,
        prepare=_seed_context,
    )


def _slow_then_fast(item):
    """Sleep longer for earlier items so completion order reverses."""
    index, count = item
    time.sleep(0.05 * (count - index))
    return index


def _identity():
    return "first"


def _other():
    return "second"


def _die():
    """Exit the worker without unwinding, as a kill or the OOM killer would.

    The pause lets the points before it finish first, so the dying one
    is the first left unfinished.
    """
    time.sleep(0.3)
    os._exit(3)


def _die_on_two(item):
    return _die() if item == 2 else item


class TestExecutorResolution:
    def test_default_is_serial(self):
        assert isinstance(executor_for(None), SerialExecutor)
        assert isinstance(executor_for(1), SerialExecutor)

    def test_workers_above_one_is_parallel(self):
        executor = executor_for(4)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 4

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelExecutor(0)


class TestOrdering:
    def test_parallel_results_ordered_when_completion_is_not(self):
        count = 4
        items = [(index, count) for index in range(count)]
        results = ParallelExecutor(2).map(_slow_then_fast, items)
        assert results == list(range(count))

    def test_run_many_preserves_input_order(self):
        assert run_many([_identity, _other], workers=2) == [
            "first",
            "second",
        ]


class TestDeadWorker:
    def test_parallel_map_names_the_first_unfinished_item(self):
        with pytest.raises(WorkerDiedError, match="item 2: 2") as caught:
            ParallelExecutor(2).map(_die_on_two, [0, 1, 2, 3])
        assert isinstance(caught.value.__cause__, BrokenProcessPool)

    def test_run_many_names_the_first_unfinished_task(self):
        """The seam sharded tree runs and ``run_scenario`` go through."""
        with pytest.raises(ExperimentError, match="item 1: <function _die"):
            run_many([_identity, _die], workers=2)


class TestDeterminism:
    def test_serial_and_parallel_rows_identical_synthetic(self):
        values = [1.0, 2.0, 3.0, 4.0]
        serial = executor_for(None).map(_square_row, values)
        parallel = executor_for(4).map(_square_row, values)
        assert serial == parallel
        assert [row["x"] for row in parallel] == values

    def test_serial_and_parallel_rows_identical_figure3(self):
        serial = run_scenario("figure3", values=(2, 30))
        parallel = run_scenario("figure3", values=(2, 30), workers=2)
        assert serial.rows == parallel.rows

    def test_serial_and_parallel_rows_identical_figure5(self):
        serial = run_scenario("figure5", values=(5, 20))
        parallel = run_scenario("figure5", values=(5, 20), workers=2)
        assert serial.rows == parallel.rows

    def test_per_point_rng_is_seed_stable_across_executors(self):
        entry = _drawing_scenario((1.0, 2.0, 3.0))
        serial = run_scenario(entry, seed=7)
        parallel = run_scenario(entry, seed=7, workers=3)
        assert serial.rows == parallel.rows
        # Each point gets an independent stream: draws differ by point.
        draws = serial.column("draw")
        assert len(set(draws)) == len(draws)

    def test_different_root_seeds_change_point_draws(self):
        entry = _drawing_scenario((1.0,))
        a = run_scenario(entry, seed=1)
        b = run_scenario(entry, seed=2)
        assert a.rows[0]["draw"] != b.rows[0]["draw"]
