"""Generic scenario driver.

:func:`run_scenario` is the one execution path every scenario —
paper figure, ablation, or new workload family — flows through:

1. resolve the scenario (by name or an explicit spec),
2. apply parameter / axis-value overrides,
3. ``prepare`` the shared context once in the parent process,
4. fan the axis values out through the same
   :func:`repro.api.executors.executor_for` seam the figure sweeps
   use — so ``workers > 1`` runs points in parallel processes with
   rows collected in axis order, bit-identical to the serial run.

Each point produces one plain-dict row; the axis value is prepended
under the axis name unless the point already reported it (configuration
grids like the ablations label their own rows).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.api.executors import executor_for
from repro.api.render import render_dict_rows
from repro.api.results import ResultSet
from repro.core.errors import ExperimentError
from repro.core.rng import DEFAULT_SEED
from repro.scenarios.registry import SCENARIOS, PointFn, Scenario
from repro.scenarios.spec import AxisValue, ScenarioSpec


@dataclass
class ScenarioResult:
    """The rows a scenario produced, plus the spec that produced them."""

    spec: ScenarioSpec
    seed: int
    rows: List[Dict[str, Any]]

    def column(self, name: str) -> List[Any]:
        """Extract one column across all rows (missing → raises)."""
        try:
            return [row[name] for row in self.rows]
        except KeyError as exc:
            raise ExperimentError(
                f"column {exc.args[0]!r} missing from scenario rows; "
                f"available: {sorted(self.rows[0]) if self.rows else []}"
            ) from None

    @property
    def result_set(self) -> ResultSet:
        """The rows as a :class:`~repro.api.results.ResultSet`.

        The schema is inferred first-seen across the rows (points may
        report topology-specific extra columns), so the declared order
        matches row-dict order exactly.
        """
        return ResultSet.from_records(self.rows)

    def to_dict(self) -> Dict[str, object]:
        """Serializable form: configuration, schema, and every row."""
        results = self.result_set
        return {
            "spec": self.spec.to_dict(),
            "seed": self.seed,
            "columns": list(results.columns),
            "rows": results.to_records(),
        }


def execute_scenario_point(
    value: AxisValue,
    *,
    point: PointFn,
    axis: str,
    context: Mapping[str, object],
) -> Dict[str, object]:
    """Run one scenario point and assemble its row.

    Module-level so parallel workers can unpickle it; the serial path
    uses the same function so both executors share row semantics.
    """
    produced = point(value, **context)
    if not isinstance(produced, Mapping):
        raise ExperimentError(
            f"scenario point for axis value {value!r} returned "
            f"{type(produced).__name__}, expected a mapping of columns"
        )
    row: Dict[str, object] = {}
    if axis not in produced:
        row[axis] = value
    row.update(produced)
    return row


def _resolve(
    target: Union[str, Scenario],
    params: Optional[Mapping[str, object]],
    values: Optional[Sequence[AxisValue]],
) -> Scenario:
    entry = SCENARIOS.get(target) if isinstance(target, str) else target
    spec = entry.spec
    if params:
        spec = spec.with_params(params)
    if values is not None:
        spec = spec.with_values(values)
    if spec is entry.spec:
        return entry
    return replace(entry, spec=spec)


def run_scenario(
    target: Union[str, Scenario],
    *,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
    params: Optional[Mapping[str, object]] = None,
    values: Optional[Sequence[AxisValue]] = None,
) -> ScenarioResult:
    """Run one registered scenario end to end.

    ``params`` overrides entries of the spec's parameter mapping
    (unknown names are rejected); ``values`` replaces the swept axis
    values.  ``workers`` > 1 executes points across worker processes
    through :func:`repro.api.executors.executor_for`, with rows
    returned in axis order — identical to a serial run.
    """
    entry = _resolve(target, params, values)
    spec = entry.spec
    context = entry.prepare(dict(spec.params), seed)
    rows = executor_for(workers).map(
        partial(
            execute_scenario_point,
            point=entry.point,
            axis=spec.axis,
            context=context,
        ),
        spec.values,
    )
    return ScenarioResult(spec=spec, seed=seed, rows=rows)


def render_scenario(result: ScenarioResult) -> str:
    """Render a scenario's rows as the standard ASCII table."""
    spec = result.spec
    return render_dict_rows(
        result.rows,
        columns=list(spec.columns) if spec.columns else None,
        title=spec.heading,
    )


def describe_scenario(target: Union[str, Scenario]) -> str:
    """Human-readable description of a scenario's spec."""
    entry = SCENARIOS.get(target) if isinstance(target, str) else target
    spec = entry.spec
    lines = [
        f"{spec.name} — {spec.description}",
        f"  axis:    {spec.axis} = {list(spec.values)}",
        f"  tags:    {', '.join(spec.tags) or '(none)'}",
        "  params:",
    ]
    if spec.params:
        width = max(len(key) for key in spec.params)
        for key in sorted(spec.params):
            lines.append(f"    {key.ljust(width)} = {spec.params[key]!r}")
    else:
        lines.append("    (none)")
    if spec.columns:
        lines.append(f"  columns: {', '.join(spec.columns)}")
    return "\n".join(lines)
