"""Seeded random-number stream management.

Simulations must be reproducible: the same seed must yield the same
trace, the same workload, and hence the same experiment output.  To keep
components independent (changing how many samples the news generator
draws must not perturb the stock generator), each named component gets
its own ``random.Random`` stream derived deterministically from a root
seed and the component name.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

#: The seed every experiment uses unless overridden (ICDCS 2001, April).
#: Canonical home; :mod:`repro.experiments.workloads` re-exports it.
DEFAULT_SEED = 20010401


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a deterministic 64-bit seed for a named substream.

    Uses SHA-256 over the root seed and the name, so streams are stable
    across Python versions and processes (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A factory of independent, named, deterministic RNG streams.

    Example:
        >>> rngs = RngRegistry(root_seed=42)
        >>> a = rngs.stream("news.cnn")
        >>> b = rngs.stream("stocks.yahoo")
        >>> a is rngs.stream("news.cnn")
        True
    """

    def __init__(self, root_seed: int = 0) -> None:
        self._root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    @property
    def root_seed(self) -> int:
        return self._root_seed

    def stream(self, name: str) -> random.Random:
        """Return the RNG stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self._root_seed, name))
        return self._streams[name]

    def __repr__(self) -> str:
        return (
            f"RngRegistry(root_seed={self._root_seed}, "
            f"streams={sorted(self._streams)})"
        )
