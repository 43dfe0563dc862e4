"""Policy registry: build refresh policies by name.

Experiments and examples configure policies from strings/dicts (sweep
definitions, :class:`~repro.api.config.PolicyConfig`); the registry
centralises name → factory resolution so new policies plug in without
touching the harness.  Backed by the same generic
:class:`~repro.core.registry.Registry` the scenario and
workload-source lookups use.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Type, TypeVar, Union

from repro.core.registry import Registry

from repro.consistency.adaptive_value import (
    AdaptiveValueParameters,
    adaptive_value_policy_factory,
)
from repro.consistency.base import (
    PolicyFactory,
    fixed_policy_factory,
    passive_policy_factory,
)
from repro.consistency.limd import LimdParameters, limd_policy_factory
from repro.consistency.ttl import alex_policy_factory, static_ttl_policy_factory
from repro.core.errors import PolicyConfigurationError
from repro.core.types import Seconds

#: A registry entry: builds a PolicyFactory from keyword arguments.
FactoryBuilder = Callable[..., PolicyFactory]

P = TypeVar("P")

#: The policy registry; ``POLICIES.names()`` lists the built-ins.
POLICIES: Registry[FactoryBuilder] = Registry(
    "policy",
    error_factory=lambda name, known: PolicyConfigurationError(
        f"unknown policy {name!r}; available: {known}"
    ),
)


def register_policy(name: str, builder: FactoryBuilder) -> None:
    """Register a policy builder under a unique name."""
    try:
        POLICIES.register(name, builder)
    except KeyError:
        raise PolicyConfigurationError(
            f"policy {name!r} already registered"
        ) from None


def available_policies() -> list[str]:
    """Names of all registered policies, sorted."""
    return POLICIES.names()


def build_policy_factory(name: str, **kwargs: Any) -> PolicyFactory:
    """Build a policy factory by registered name.

    Built-in names: ``baseline`` (fixed-interval poller), ``limd``,
    ``adaptive_value``, ``passive``.
    """
    return POLICIES.get(name)(**kwargs)


def _parameters(
    kind: Type[P], given: Union[None, P, Mapping[str, Any]]
) -> P:
    """A policy's ``parameters`` keyword as its dataclass.

    Configs are JSON, so the knobs arrive as a mapping of the
    dataclass's fields; code passes the dataclass itself.  Anything
    else — and a mapping with unknown keys — raises the ``TypeError``
    a bad keyword would, which the config path reports as invalid
    params for the policy.
    """
    if given is None:
        return kind()
    if isinstance(given, kind):
        return given
    if isinstance(given, Mapping):
        return kind(**given)
    raise TypeError(
        f"parameters must be a {kind.__name__} or a mapping of its "
        f"fields, got {type(given).__name__}"
    )


def _build_baseline(*, delta: Seconds) -> PolicyFactory:
    """The paper's baseline: poll every Δ time units."""
    return fixed_policy_factory(delta)


def _build_limd(
    *,
    delta: Seconds,
    ttr_max: Optional[Seconds] = None,
    parameters: Union[None, LimdParameters, Mapping[str, Any]] = None,
    detection_mode: str = "history",
) -> PolicyFactory:
    return limd_policy_factory(
        delta,
        ttr_max=ttr_max,
        parameters=_parameters(LimdParameters, parameters),
        detection_mode=detection_mode,
    )


def _build_adaptive_value(
    *,
    delta: float,
    ttr_min: Seconds,
    ttr_max: Seconds,
    parameters: Union[
        None, AdaptiveValueParameters, Mapping[str, Any]
    ] = None,
) -> PolicyFactory:
    return adaptive_value_policy_factory(
        delta,
        ttr_min=ttr_min,
        ttr_max=ttr_max,
        parameters=_parameters(AdaptiveValueParameters, parameters),
    )


def _build_passive() -> PolicyFactory:
    return passive_policy_factory()


def _build_static_ttl(*, ttl: Seconds) -> PolicyFactory:
    return static_ttl_policy_factory(ttl)


def _build_alex(
    *,
    ttr_min: Seconds,
    ttr_max: Seconds,
    update_threshold: float = 0.2,
) -> PolicyFactory:
    return alex_policy_factory(
        ttr_min=ttr_min, ttr_max=ttr_max, update_threshold=update_threshold
    )


register_policy("baseline", _build_baseline)
register_policy("limd", _build_limd)
register_policy("adaptive_value", _build_adaptive_value)
register_policy("passive", _build_passive)
register_policy("static_ttl", _build_static_ttl)
register_policy("alex", _build_alex)
