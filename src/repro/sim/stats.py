"""Statistics primitive for simulation components.

:class:`Counter` — monotone named counters (polls, violations, hits).

Eq. 14 fidelity (total out-of-sync time) is computed in
:mod:`repro.metrics.fidelity`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, Iterator


class Counter:
    """A set of named monotone counters.

    Attributes:
        counts: The live mapping.  Per-event callers bump it in place
            (``counts[name] += 1``, from zero) so counting costs no
            call; :meth:`increment` is the checked entry point.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: DefaultDict[str, int] = defaultdict(int)

    def increment(self, name: str, by: int = 1) -> int:
        """Increase counter ``name`` by ``by`` (must be >= 0)."""
        if by < 0:
            raise ValueError(f"cannot increment by negative amount {by}")
        counts = self.counts
        new = counts[name] = counts[name] + by
        return new

    def get(self, name: str) -> int:
        """Return the current value of ``name`` (0 if never incremented)."""
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Return a copy of all counters."""
        return dict(self.counts)

    def __iter__(self) -> Iterator[str]:
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return f"Counter({dict(self.counts)})"
