"""Per-layer attribution of one profiled repetition.

The traced run wraps a full-size repetition in ``cProfile`` and this
module buckets the profile's *exclusive* times and call counts into the
repo's layers by source path.  Built-in and stdlib functions have no
repro frame of their own, so their time is charged to the layer of the
function that called them, through the profile's caller edges
(transitively when a stdlib function calls a built-in).

Nothing here imports ``repro``: layers are defined by where a code
object's file lives, which is all the profile records.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, Optional, Set, Tuple

E2E_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(E2E_DIR))
SRC_DIR = os.path.join(ROOT, "src")
REPRO_DIR = os.path.join(SRC_DIR, "repro")

LAYERS = (
    "scenarios",
    "api",
    "topology",
    "traces",
    "sim.kernel",
    "sim.wheel",
    "sim.timers",
    "sim.fastforward",
    "sim.stats",
    "proxy",
    "proxy.cache",
    "httpsim",
    "server",
    "consistency",
    "metrics",
    "core",
    "loadgen",
    "other",
)

#: Path under ``src/repro`` (a directory prefix ending in ``/``, or one
#: file) -> layer; the first match wins, so files come before their
#: package.
_PATH_LAYERS = (
    ("scenarios/", "scenarios"),
    ("experiments/", "scenarios"),
    ("api/", "api"),
    ("topology/", "topology"),
    ("traces/", "traces"),
    ("workload/", "traces"),
    ("analysis/", "traces"),
    ("sim/kernel.py", "sim.kernel"),
    ("sim/wheel.py", "sim.wheel"),
    ("sim/timers.py", "sim.timers"),
    ("sim/fastforward.py", "sim.fastforward"),
    ("sim/stats.py", "sim.stats"),
    ("proxy/cache.py", "proxy.cache"),
    ("proxy/eviction/", "proxy.cache"),
    ("proxy/", "proxy"),
    ("httpsim/", "httpsim"),
    ("server/", "server"),
    ("consistency/", "consistency"),
    ("groups/", "consistency"),
    ("metrics/", "metrics"),
    ("core/", "core"),
)

#: The event loops whose inclusive time is ``phase.loop_s``.
_LOOP_FUNCTIONS = {
    ("sim/kernel.py", "run"),
    ("sim/fastforward.py", "run"),
}

Func = Tuple[str, int, str]
Shares = Dict[str, float]


def _repro_path(filename: str) -> Optional[str]:
    """``filename`` relative to ``src/repro`` with ``/`` separators."""
    prefix = REPRO_DIR + os.sep
    if not filename.startswith(prefix):
        return None
    return filename[len(prefix):].replace(os.sep, "/")


def layer_of(filename: str) -> Optional[str]:
    """The layer owning a source file; None for built-ins and stdlib."""
    relative = _repro_path(filename)
    if relative is not None:
        for path, layer in _PATH_LAYERS:
            if relative.startswith(path):
                return layer
        return "other"
    if filename.startswith(E2E_DIR + os.sep):
        return "loadgen"
    return None


def bucket(profile: cProfile.Profile) -> Dict[str, float]:
    """Layer metrics of one profile: self_s, share, calls, and phases."""
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    resolved: Dict[Func, Shares] = {}

    def shares_of(func: Func, visiting: Set[Func]) -> Shares:
        """How a function's activity splits over layers."""
        known = resolved.get(func)
        if known is not None:
            return known
        layer = layer_of(func[0])
        if layer is not None:
            shares = {layer: 1.0}
        else:
            # A frame with no layer of its own inherits its callers',
            # weighted by the inclusive time spent under each.
            shares = {}
            weight = 0.0
            visiting.add(func)
            for caller, (_nc, _cc, _tt, ct) in stats[func][4].items():
                if caller in visiting or caller not in stats:
                    continue
                for name, share in shares_of(caller, visiting).items():
                    shares[name] = shares.get(name, 0.0) + ct * share
                weight += ct
            visiting.discard(func)
            if weight > 0.0:
                shares = {name: value / weight for name, value in shares.items()}
            else:
                shares = {"other": 1.0}
        resolved[func] = shares
        return shares

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    total_s = 0.0
    loop_s = {path: 0.0 for path, _name in _LOOP_FUNCTIONS}
    for func, (_cc, nc, tt, ct, callers) in stats.items():
        total_s += tt
        layer = layer_of(func[0])
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            relative = _repro_path(func[0])
            if (relative, func[2]) in _LOOP_FUNCTIONS:
                loop_s[relative] += ct  # type: ignore[index]
            continue
        charged = 0.0
        for caller, (edge_nc, _edge_cc, edge_tt, _edge_ct) in callers.items():
            for name, share in shares_of(caller, set()).items():
                self_s[name] += edge_tt * share
                calls[name] += edge_nc * share
            charged += edge_tt
        # A root frame has no caller edge to charge.
        self_s["other"] += tt - charged

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / total_s if total_s else 0.0
        metrics[f"{layer}.calls"] = round(calls[layer])
    # Fast-forward drives the kernel itself, so its loop contains any
    # kernel loop time and the two must not be added.
    loop = loop_s["sim/fastforward.py"] or loop_s["sim/kernel.py"]
    metrics["phase.loop_s"] = loop
    metrics["phase.outside_s"] = total_s - loop
    return metrics
