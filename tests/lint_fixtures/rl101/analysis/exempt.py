"""RL101 fixture: the same pattern outside the deterministic packages.

The wall-clock check is scoped to the packages that feed result rows;
``analysis`` is not one of them, so the read below must NOT be flagged.
"""

import time


def stamp() -> float:
    return time.time()
