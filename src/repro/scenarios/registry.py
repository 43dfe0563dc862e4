"""Decorator-based scenario registry.

A scenario is a :class:`~repro.scenarios.spec.ScenarioSpec` plus two
callables:

* ``prepare(params, seed)`` — runs **once** in the parent process and
  materialises the shared context every point needs (generated traces,
  rebuilt parameter objects).  Everything it returns must pickle, since
  with ``workers`` > 1 the context crosses the process boundary.
* the decorated **point function** — ``point(value, **context)`` runs
  once per axis value (possibly in a worker process) and returns one
  row of metric columns as a plain mapping.

Registration is declarative::

    @scenario(
        name="failure_churn",
        description="LIMD under proxy crash/recovery churn",
        axis="mean_uptime_min",
        values=(60.0, 480.0),
        params={"trace": "cnn_fn", "delta_min": 10.0},
        prepare=_prepare_failure_churn,
        claims=(Claim("failure_churn.…", "…", _check),),
    )
    def _failure_churn_point(mean_uptime_min, *, trace, delta):
        ...

Point functions must be module-level (pickling requirement of
:class:`repro.api.executors.ParallelExecutor`).

Every scenario states what it shows: ``claims=(Claim(...), ...)``
beside the point function whose rows it judges.  The report prints the
verdicts of the paper artefacts and ablations, and
``tests/test_paper_claims.py`` pins every claim per seed; nothing else
states it.

Lookup goes through :data:`SCENARIOS`, a
:class:`repro.core.registry.Registry` shared with the consistency and
workload-source registries (``SCENARIOS.get(name)``,
``SCENARIOS.names()``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, Tuple

from repro.core.registry import Registry
from repro.core.errors import ReproError
from repro.scenarios.spec import AxisValue, ScenarioSpec

#: Builds the per-run shared context from (params, seed).
PrepareFn = Callable[[Mapping[str, object], int], Mapping[str, object]]

#: Turns one axis value (plus the prepared context) into a metrics row.
PointFn = Callable[..., Mapping[str, object]]


class UnknownScenarioError(ReproError, KeyError):
    """A scenario name was not found in the registry."""

    def __init__(self, name: str, known: Sequence[str]) -> None:
        super().__init__(
            f"unknown scenario {name!r}; known: {', '.join(known) or '(none)'}"
        )
        self.name = name

    def __str__(self) -> str:  # KeyError.__str__ would repr the message
        return self.args[0]


def _prepare_nothing(
    params: Mapping[str, object], seed: int
) -> Mapping[str, object]:
    """Default ``prepare``: the point needs no shared context."""
    del params, seed
    return {}


def prepare_params_seed(
    params: Mapping[str, object], seed: int
) -> Mapping[str, object]:
    """Common ``prepare``: hand the raw params and seed to every point.

    For scenarios whose points build their own workload per axis value
    (deriving the point RNG from ``seed`` and the value).
    """
    return {"params": dict(params), "seed": seed}


#: What a claim's check returns: (holds, the measured numbers in words).
Verdict = Tuple[bool, str]


@dataclass(frozen=True)
class Claim:
    """One qualitative claim of the paper, stated once as a predicate.

    Attributes:
        id: ``<artefact>.<what_it_says>``, unique across the tree.
        paper: The paper's sentence, as the report quotes it.
        check: Module-level function from the finished run — a
            :class:`~repro.scenarios.engine.ScenarioResult`, or the
            ``FigureNResult`` of a time-series figure — to a
            :data:`Verdict`.
        divergence: Why the claim is known not to hold where it does
            not ('' when it holds wherever it has been measured).
    """

    id: str
    paper: str
    check: Callable[[Any], Verdict]
    divergence: str = ""


@dataclass(frozen=True)
class Scenario:
    """One registered scenario: declarative spec + executable hooks."""

    spec: ScenarioSpec
    point: PointFn
    prepare: PrepareFn = _prepare_nothing
    claims: Tuple[Claim, ...] = ()


def _load_builtins() -> None:
    """Import the modules whose import side-effect is registration.

    Each module decorates its own point functions with ``@scenario``;
    nothing is read from them here.
    """
    import repro.experiments.ablations  # noqa: F401
    import repro.experiments.figure3  # noqa: F401
    import repro.experiments.figure4  # noqa: F401
    import repro.experiments.figure5  # noqa: F401
    import repro.experiments.figure6  # noqa: F401
    import repro.experiments.figure7  # noqa: F401
    import repro.experiments.figure8  # noqa: F401
    import repro.experiments.group_mt  # noqa: F401
    import repro.experiments.hierarchy  # noqa: F401
    import repro.experiments.table2  # noqa: F401
    import repro.experiments.table3  # noqa: F401
    import repro.scenarios.families  # noqa: F401


#: The scenario registry: ``SCENARIOS.get(name)`` resolves one entry,
#: ``SCENARIOS.names()`` lists them, ``in`` tests membership.  Built-in
#: scenarios load lazily on first lookup.
SCENARIOS: Registry[Scenario] = Registry(
    "scenario",
    error_factory=lambda name, known: UnknownScenarioError(name, known),
    loader=_load_builtins,
)


def scenario(
    *,
    name: str,
    description: str,
    axis: str,
    values: Sequence[AxisValue],
    params: Optional[Mapping[str, object]] = None,
    columns: Sequence[str] = (),
    title: str = "",
    tags: Sequence[str] = (),
    prepare: Optional[PrepareFn] = None,
    claims: Sequence[Claim] = (),
) -> Callable[[PointFn], PointFn]:
    """Register the decorated point function as a runnable scenario."""
    spec = ScenarioSpec(
        name=name,
        description=description,
        axis=axis,
        values=tuple(values),
        params=dict(params or {}),
        columns=tuple(columns),
        title=title or description,
        tags=tuple(tags),
    )

    def wrap(point: PointFn) -> PointFn:
        register_scenario(
            Scenario(
                spec=spec,
                point=point,
                prepare=prepare or _prepare_nothing,
                claims=tuple(claims),
            )
        )
        return point

    return wrap


def register_scenario(entry: Scenario) -> None:
    """Add a scenario to the registry (duplicate names are an error)."""
    SCENARIOS.register(entry.spec.name, entry)

