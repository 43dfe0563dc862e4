"""Declarative scenario specifications.

A :class:`ScenarioSpec` captures *what* an experiment is — workload and
trace parameters, the policy grid, the swept axis, and the metric
columns to report — as plain, JSON-serializable data.  The *how* (the
point function that turns one axis value into a row of metrics) lives
in the registry (:mod:`repro.scenarios.registry`); the two are joined
by :func:`repro.scenarios.engine.run_scenario`.

Keeping the spec declarative buys three things:

* scenarios can be listed, described, and overridden from the CLI
  (``python -m repro scenarios run figure3 --params trace=guardian``)
  without touching code;
* the golden-output regression suite can serialize the exact
  configuration it pinned alongside the rows it hashed;
* new scenarios are mostly data — a spec plus one point function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Sequence, Tuple, Union

# Shared with repro.api.config: one JSON-round-trip discipline.
from repro.api.jsonable import check_jsonable as _check
from repro.api.jsonable import freeze as _freeze
from repro.api.jsonable import thaw as _thaw
from repro.core.errors import ReproError

#: Values a scenario axis may sweep over: numbers for the classic Δ/δ
#: sweeps, strings for configuration grids (detection modes, topologies).
AxisValue = Union[int, float, str]


class ScenarioSpecError(ReproError):
    """A scenario specification was malformed or inconsistent."""


def _check_jsonable(name: str, value: object) -> None:
    """Reject parameter values that would not survive a JSON round trip."""
    _check(name, value, ScenarioSpecError)


@dataclass(frozen=True)
class ScenarioSpec:
    """The declarative description of one registered scenario.

    Attributes:
        name: Unique registry key (``repro scenarios run <name>``).
        description: One-line summary shown by ``scenarios list``.
        axis: Name of the swept parameter; becomes the first row column.
        values: The axis values — one simulation point per value.
        params: Scenario-family parameters (trace keys, tolerances,
            workload knobs, policy settings).  Everything here must be
            JSON-serializable and is overridable via ``--params``.
        columns: Metric columns to render, in order ('()' = all).
        title: Heading of the rendered result table.  ``{name}``
            fields are filled from ``params`` (see :attr:`heading`), so
            the heading names the trace or pair that actually ran.
        tags: Free-form labels (``paper``, ``ablation``, ``family``...).
    """

    name: str
    description: str
    axis: str
    values: Tuple[AxisValue, ...]
    params: Mapping[str, object] = field(default_factory=dict)
    columns: Tuple[str, ...] = ()
    title: str = ""
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for attribute in ("name", "description", "axis", "title"):
            if not isinstance(getattr(self, attribute), str):
                raise ScenarioSpecError(
                    f"{attribute} must be a string, got "
                    f"{type(getattr(self, attribute)).__name__}"
                )
        if not self.name:
            raise ScenarioSpecError("name must be non-empty")
        if not self.axis:
            raise ScenarioSpecError("axis must be non-empty")
        if isinstance(self.values, (str, bytes)) or not isinstance(
            self.values, Sequence
        ):
            raise ScenarioSpecError(
                f"values must be a sequence, got {type(self.values).__name__}"
            )
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ScenarioSpecError("values must be non-empty")
        for value in self.values:
            if isinstance(value, bool) or not isinstance(
                value, (int, float, str)
            ):
                raise ScenarioSpecError(
                    f"axis values must be numbers or strings, got {value!r}"
                )
        if not isinstance(self.params, Mapping):
            raise ScenarioSpecError(
                f"params must be a mapping, got {type(self.params).__name__}"
            )
        for key, value in self.params.items():
            if not isinstance(key, str):
                raise ScenarioSpecError(
                    f"param names must be strings, got {key!r}"
                )
            _check_jsonable(key, value)
        # Normalise sequences to tuples so list- and tuple-specified
        # params compare equal (and a dict/JSON round trip is identity).
        object.__setattr__(
            self,
            "params",
            {key: _freeze(value) for key, value in self.params.items()},
        )
        for attribute in ("columns", "tags"):
            raw = getattr(self, attribute)
            if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence):
                raise ScenarioSpecError(
                    f"{attribute} must be a sequence of strings"
                )
            items = tuple(raw)
            if not all(isinstance(item, str) for item in items):
                raise ScenarioSpecError(
                    f"{attribute} must contain only strings, got {items!r}"
                )
            object.__setattr__(self, attribute, items)
        try:
            self.heading
        except (LookupError, ValueError, TypeError, AttributeError) as exc:
            raise ScenarioSpecError(
                f"title {self.title!r} does not format with params "
                f"{sorted(self.params)}: {exc!r}"
            ) from None

    @property
    def heading(self) -> str:
        """:attr:`title` (or the name) with ``{param}`` fields filled in.

        Sequence params read as their items joined by ``+``, the way
        rows label a trace pair (``cnn_fn+nyt_ap``).
        """
        fields = {
            key: "+".join(map(str, value)) if isinstance(value, tuple) else value
            for key, value in self.params.items()
        }
        return (self.title or self.name).format(**fields)

    # ------------------------------------------------------------------
    # Overrides
    # ------------------------------------------------------------------
    def with_params(self, overrides: Mapping[str, object]) -> "ScenarioSpec":
        """Return a copy with ``overrides`` merged into ``params``.

        Only existing parameter names may be overridden — a typo'd name
        is an error, not a silently ignored knob.
        """
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            raise ScenarioSpecError(
                f"unknown parameter(s) for scenario {self.name!r}: "
                f"{unknown}; known: {sorted(self.params)}"
            )
        merged = dict(self.params)
        merged.update(overrides)
        return replace(self, params=merged)

    def with_values(self, values: Sequence[AxisValue]) -> "ScenarioSpec":
        """Return a copy sweeping ``values`` instead."""
        return replace(self, values=tuple(values))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form: lists for tuples, safe to ``json.dumps``."""
        return {
            "name": self.name,
            "description": self.description,
            "axis": self.axis,
            "values": list(self.values),
            "params": {k: _thaw(v) for k, v in self.params.items()},
            "columns": list(self.columns),
            "title": self.title,
            "tags": list(self.tags),
        }


def parse_param_overrides(pairs: Sequence[str]) -> Dict[str, object]:
    """Parse CLI ``key=value`` override pairs into a params mapping.

    Values are parsed as JSON when possible (numbers, booleans, lists,
    quoted strings) and fall back to the raw string otherwise, so
    ``--params delta_min=2.5 trace=guardian pair='["guardian","cnn_fn"]'``
    all work without shell gymnastics.
    """
    overrides: Dict[str, object] = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ScenarioSpecError(
                f"malformed --params entry {pair!r}: expected key=value"
            )
        try:
            value: object = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key] = value
    return overrides
