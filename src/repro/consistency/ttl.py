"""Prior-art TTL policies the paper builds on and compares against.

The paper's related work rests on three classic proxy-side mechanisms:

* **Static TTL** (Mogul [7]): every fetched object is considered fresh
  for a fixed lifetime; the proxy revalidates when the TTL expires.
  Equivalent to the fixed-interval poller but expressed in TTL terms.
* **Adaptive TTL** — the *Alex protocol* (Cate [2], used by Gwertzman &
  Seltzer's client polling study [5]): the time-to-live is a fraction of
  the object's current age, ``TTL = μ · (now − last_modified)``,
  clamped into bounds.  Old objects are assumed stable (long TTL);
  recently changed objects are polled frequently.

Both are :class:`~repro.consistency.base.RefreshPolicy` implementations,
so they can be dropped anywhere LIMD can — including under the mutual
coordinators — and compared head-to-head (see
``tests/test_paper_claims.py::test_extension_prior_policies``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.consistency.base import RefreshPolicy
from repro.core.errors import PolicyConfigurationError
from repro.core.types import (
    ObjectId,
    ObjectSnapshot,
    Seconds,
    TTRBounds,
    require_positive,
)


class StaticTTLPolicy(RefreshPolicy):
    """Fixed object lifetime: revalidate every ``ttl`` seconds.

    Functionally identical to the baseline fixed-interval poller; kept
    as a distinct class so experiments can report it under its
    historical name and so the TTL is documented as a *freshness
    lifetime* rather than a consistency bound.
    """

    name = "static_ttl"

    def __init__(self, ttl: Seconds) -> None:
        self._ttl = require_positive("ttl", ttl)

    @property
    def ttl(self) -> Seconds:
        return self._ttl

    def first_ttr(self) -> Seconds:
        return self._ttl

    def next_ttr(
        self, now: Seconds, modified: bool, snapshot: ObjectSnapshot,
        first_unseen: Optional[Seconds], updates_since: Optional[int],
    ) -> Seconds:
        return self._ttl

    @property
    def current_ttr(self) -> Seconds:
        return self._ttl


@dataclass(frozen=True)
class AlexParameters:
    """Tunables of the Alex adaptive-TTL protocol.

    Attributes:
        update_threshold: μ — the fraction of the object's age used as
            its TTL.  Cate's original uses 0.1–0.2; Squid defaults to
            0.2 ("refresh percent").
    """

    update_threshold: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.update_threshold <= 1.0:
            raise PolicyConfigurationError(
                f"update_threshold must be in (0, 1], got {self.update_threshold}"
            )


class AlexTTLPolicy(RefreshPolicy):
    """Adaptive TTL (the Alex protocol): ``TTR = μ · age``.

    ``age`` is the time since the object's last known modification at
    the instant the TTR is computed.  A just-modified object gets a tiny
    TTR (clamped to ``bounds.ttr_min``); an object untouched for a day
    is trusted for μ of a day more.

    Unlike LIMD, Alex carries no violation feedback: it reacts only to
    the *age* signal, which is why the paper's LIMD achieves better
    fidelity-per-poll on bursty data (Alex over-polls old-but-hot
    objects right after a change and under-polls during silent decay).
    """

    name = "alex_ttl"

    def __init__(
        self,
        *,
        bounds: TTRBounds,
        parameters: AlexParameters = AlexParameters(),
    ) -> None:
        self._bounds = bounds
        self._parameters = parameters
        self._ttr: Seconds = bounds.ttr_min

    @property
    def bounds(self) -> TTRBounds:
        return self._bounds

    @property
    def parameters(self) -> AlexParameters:
        return self._parameters

    def first_ttr(self) -> Seconds:
        return self._ttr

    def next_ttr(
        self, now: Seconds, modified: bool, snapshot: ObjectSnapshot,
        first_unseen: Optional[Seconds], updates_since: Optional[int],
    ) -> Seconds:
        age = now - snapshot.last_modified
        self._ttr = self._bounds.clamp(self._parameters.update_threshold * age)
        return self._ttr

    @property
    def current_ttr(self) -> Seconds:
        return self._ttr

    def __repr__(self) -> str:
        return (
            f"AlexTTLPolicy(mu={self._parameters.update_threshold}, "
            f"ttr={self._ttr:.1f})"
        )


def static_ttl_policy_factory(ttl: Seconds) -> Callable[[ObjectId], StaticTTLPolicy]:
    """Factory for :class:`StaticTTLPolicy`."""

    def make(_object_id: ObjectId) -> StaticTTLPolicy:
        return StaticTTLPolicy(ttl)

    return make


def alex_policy_factory(
    *,
    ttr_min: Seconds,
    ttr_max: Seconds,
    update_threshold: float = 0.2,
) -> Callable[[ObjectId], AlexTTLPolicy]:
    """Factory for :class:`AlexTTLPolicy`."""
    bounds = TTRBounds(ttr_min=ttr_min, ttr_max=ttr_max)
    parameters = AlexParameters(update_threshold=update_threshold)

    def make(_object_id: ObjectId) -> AlexTTLPolicy:
        return AlexTTLPolicy(bounds=bounds, parameters=parameters)

    return make
