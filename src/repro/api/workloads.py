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
* ``trace_replay`` — replay a proxy access log (Common Log Format or
  squid native) as update traces via a configurable update-inference
  rule; see :mod:`repro.traces.clf`.  Params: ``path`` *or* ``lines``
  (the log itself), ``format`` (``clf``/``squid``), ``rule``
  (``size_change``/``every_request``), ``time_scale``, ``url_map``
  (object key → URL; keys name URLs directly when omitted).

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


def _trace_replay_source(
    objects: Sequence[str], seed: int, params: Mapping[str, object]
) -> List[UpdateTrace]:
    del seed  # replay is data-driven; nothing here is random
    from repro.core.errors import TraceFormatError
    from repro.traces.clf import log_to_traces, parse_log, read_log

    known = {"path", "lines", "format", "rule", "time_scale", "url_map"}
    unknown = sorted(set(params) - known)
    if unknown:
        raise SimulationConfigError(
            f"unknown trace_replay param(s) {unknown}; known: {sorted(known)}"
        )
    path = params.get("path")
    lines = params.get("lines")
    if (path is None) == (lines is None):
        raise SimulationConfigError(
            "trace_replay needs exactly one of 'path' (a log file) or "
            "'lines' (inline log lines)"
        )
    log_format = params.get("format", "clf")
    if not isinstance(log_format, str):
        raise SimulationConfigError(
            f"trace_replay format must be a string, got {log_format!r}"
        )
    rule = params.get("rule", "size_change")
    if not isinstance(rule, str):
        raise SimulationConfigError(
            f"trace_replay rule must be a string, got {rule!r}"
        )
    time_scale = params.get("time_scale", 1.0)
    if isinstance(time_scale, bool) or not isinstance(time_scale, (int, float)):
        raise SimulationConfigError(
            f"trace_replay time_scale must be a number, got {time_scale!r}"
        )
    url_map_raw = params.get("url_map", {})
    if not isinstance(url_map_raw, Mapping):
        raise SimulationConfigError(
            "trace_replay url_map must be a mapping of object key to URL, "
            f"got {type(url_map_raw).__name__}"
        )
    url_map = {}
    for key, url in url_map_raw.items():
        if not isinstance(key, str) or not isinstance(url, str):
            raise SimulationConfigError(
                f"trace_replay url_map entries must map strings to "
                f"strings, got {key!r}: {url!r}"
            )
        url_map[key] = url
    try:
        if path is not None:
            if not isinstance(path, str):
                raise SimulationConfigError(
                    f"trace_replay path must be a string, got {path!r}"
                )
            records = read_log(path, format=log_format)
        else:
            if isinstance(lines, (str, bytes)) or not isinstance(
                lines, Sequence
            ):
                raise SimulationConfigError(
                    "trace_replay lines must be a sequence of log lines, "
                    f"got {type(lines).__name__}"
                )
            for line in lines:
                if not isinstance(line, str):
                    raise SimulationConfigError(
                        f"trace_replay lines entries must be strings, "
                        f"got {line!r}"
                    )
            records = parse_log(list(lines), format=log_format)
        return log_to_traces(
            records,
            objects,
            rule=rule,
            time_scale=float(time_scale),
            url_map=url_map,
        )
    except OSError as exc:
        raise SimulationConfigError(
            f"trace_replay cannot read log {path!r}: {exc}"
        ) from None
    except TraceFormatError as exc:
        raise SimulationConfigError(f"trace_replay: {exc}") from None


register_workload_source("news", _catalogue_source("news", table2_traces))
register_workload_source("stocks", _catalogue_source("stocks", table3_traces))
register_workload_source("poisson", _poisson_source)
register_workload_source("trace_replay", _trace_replay_source)
