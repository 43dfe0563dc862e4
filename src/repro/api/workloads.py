"""Workload-source registry: resolve a :class:`WorkloadConfig` to traces.

The third reuse of the generic :class:`~repro.core.registry.Registry`
(after consistency policies and scenarios).  A *source* turns the
config's object keys into seeded :class:`~repro.traces.model.UpdateTrace`
instances:

* ``news`` — the four Table 2 temporal traces
  (cnn_fn / nyt_ap / nyt_reuters / guardian);
* ``stocks`` — the two Table 3 value traces (att / yahoo);
* ``poisson`` — synthetic temporal traces with Poisson update instants
  (params: ``rate_per_hour``, ``hours``); object keys are free-form.

New sources plug in with :func:`register_workload_source` and become
usable from any JSON ``SimulationConfig`` immediately.
"""

from __future__ import annotations

import math
from typing import Callable, List, Mapping, Sequence

from repro.api.config import SimulationConfigError, WorkloadConfig
from repro.core.registry import Registry
from repro.core.rng import RngRegistry, derive_seed
from repro.core.types import HOUR
from repro.traces.model import UpdateTrace
from repro.traces.news import table2_traces
from repro.traces.stocks import table3_traces
from repro.traces.synthetic import poisson_trace

#: A workload source: ``(objects, seed, params) -> traces`` in key order.
WorkloadSource = Callable[
    [Sequence[str], int, Mapping[str, object]], List[UpdateTrace]
]

WORKLOAD_SOURCES: Registry[WorkloadSource] = Registry(
    "workload source",
    error_factory=lambda name, known: SimulationConfigError(
        f"unknown workload source {name!r}; known: {', '.join(known)}"
    ),
)


def register_workload_source(name: str, source: WorkloadSource) -> None:
    """Register a workload source under a unique name."""
    WORKLOAD_SOURCES.register(name, source)


def workload_source_names() -> List[str]:
    """All registered workload-source names, sorted."""
    return WORKLOAD_SOURCES.names()


def resolve_workload(config: WorkloadConfig, seed: int) -> List[UpdateTrace]:
    """Materialise the traces a workload config describes.

    Traces come back in ``config.objects`` order; unknown sources,
    unknown object keys, and wrong-shaped params raise
    :class:`SimulationConfigError`.
    """
    source = WORKLOAD_SOURCES.get(config.source)
    try:
        return source(config.objects, seed, config.params)
    except (TypeError, ValueError) as exc:
        # JSON-legal but wrong-shaped params (e.g. a list where a number
        # belongs) are a config error, not a traceback.
        raise SimulationConfigError(
            f"invalid params for workload source {config.source!r} "
            f"({dict(config.params)}): {exc}"
        ) from None


def _catalogue_source(
    name: str, lookup: Callable[[Sequence[str], int], List[UpdateTrace]]
) -> WorkloadSource:
    """A source over one of the paper's keyed, parameterless catalogues."""

    def source(
        objects: Sequence[str], seed: int, params: Mapping[str, object]
    ) -> List[UpdateTrace]:
        if params:
            raise SimulationConfigError(
                f"{name} source takes no params, got {sorted(params)}"
            )
        try:
            return lookup(objects, seed)
        except KeyError as exc:
            raise SimulationConfigError(exc.args[0]) from None

    return source


def _poisson_source(
    objects: Sequence[str], seed: int, params: Mapping[str, object]
) -> List[UpdateTrace]:
    known = {"rate_per_hour", "hours"}
    unknown = sorted(set(params) - known)
    if unknown:
        raise SimulationConfigError(
            f"unknown poisson param(s) {unknown}; known: {sorted(known)}"
        )
    rate_per_hour = float(params.get("rate_per_hour", 12.0))  # type: ignore[arg-type]
    hours = float(params.get("hours", 24.0))  # type: ignore[arg-type]
    for name, value in (("rate_per_hour", rate_per_hour), ("hours", hours)):
        if not 0 < value < math.inf:
            raise SimulationConfigError(
                f"poisson {name} must be finite and > 0, got {value}"
            )
    rngs = RngRegistry(derive_seed(seed, "workload.poisson"))
    return [
        poisson_trace(
            key,
            rngs.stream(f"poisson.{key}"),
            rate_per_hour / HOUR,
            end=hours * HOUR,
        )
        for key in objects
    ]


register_workload_source("news", _catalogue_source("news", table2_traces))
register_workload_source("stocks", _catalogue_source("stocks", table3_traces))
register_workload_source("poisson", _poisson_source)
