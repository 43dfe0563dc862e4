#!/usr/bin/env python3
"""Alternating parent/change pairs of the e2e workloads, with the verdict.

Usage::

    python tools/ab_pairs.py --parent ../parent --change .          # every workload
    python tools/ab_pairs.py --parent ../parent --change . --workload figures
    python tools/ab_pairs.py --parent P --change C --workload churn --workload clients \
        --pairs 10 --seed 4242

Each pair runs both checkouts' *own* ``benchmarks/e2e/run.py --workload W
--rounds 1`` (a fresh subprocess per sample) for every chosen workload
(``--workload`` is repeatable; the default is every workload the
change's ``BENCHMARK.json`` declares) on one side, then on the other,
flipping which side goes first every pair so a slow phase of the machine
lands on both.  Every sample runs pinned to one core, the same for both
sides (the highest core this process may use; unpinned where the
platform has no ``sched_setaffinity``).  Progress goes to stderr; at the
end it prints the pinned core, then per workload the per-pair table,
then for every end-to-end metric in the change's
``BENCHMARK.json`` each side's median and quartiles, the median and
quartiles of the per-pair change/parent ratios, the pairs the change
won, and the verdict by the rule every performance claim in this
repo is held to (ROADMAP "rules of the road", choosing-metrics §8): a
*gain* needs the change to win at least nine tenths of the pairs (ties
count for neither side) and the medians to differ by more than the
distance between the parent's own quartiles; a *regression* is a change
median worse than the parent's by more than the metric's bound.

Also reports whether both sides produced the same result digest and
event count (what "same work" means at a seed ``expected.json`` does not
pin).  Exits non-zero if either side of any workload reports
``failed > 0``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

SIDES = ("parent", "change")


class Verdict(NamedTuple):
    """One metric's paired comparison (see :func:`judge`)."""

    parent_median: float
    parent_quartiles: Tuple[float, float]
    change_median: float
    change_quartiles: Tuple[float, float]
    wins: int
    losses: int
    #: Change median over parent median.
    ratio: float
    #: Median and quartiles of the per-pair ratios ``change[i] / parent[i]``.
    pair_ratio_median: float
    pair_ratio_quartiles: Tuple[float, float]
    gain: bool
    regression: bool

    @property
    def word(self) -> str:
        return "GAIN" if self.gain else "REGRESSION" if self.regression else "no gain"


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0])
    low, _mid, high = statistics.quantiles(values, n=4)
    return (low, high)


def judge(
    parent: Sequence[float],
    change: Sequence[float],
    *,
    better: str,
    bound: float,
) -> Verdict:
    """Apply the pairs rule to one metric; ``parent[i]``/``change[i]`` are pair i.

    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is the share of
    the parent median the change may be worse by before it regresses.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of samples per side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    quartiles = _quartiles(parent)
    pair_ratios = [c / p if p else float("nan") for p, c in zip(parent, change)]
    improvement = sign * (change_median - parent_median)
    return Verdict(
        parent_median=parent_median,
        parent_quartiles=quartiles,
        change_median=change_median,
        change_quartiles=_quartiles(change),
        wins=wins,
        losses=losses,
        ratio=change_median / parent_median if parent_median else float("nan"),
        pair_ratio_median=statistics.median(pair_ratios),
        pair_ratio_quartiles=_quartiles(pair_ratios),
        gain=wins >= 0.9 * len(parent)
        and improvement > quartiles[1] - quartiles[0],
        regression=-improvement > bound * abs(parent_median),
    )


def pinned_core() -> Optional[int]:
    """The core every sample runs on: the highest this process may use.

    ``None`` where the platform cannot pin a process to a core.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    return max(os.sched_getaffinity(0))


def run_once(
    checkout: str, workload: str, seed: Optional[int]
) -> Dict[str, Any]:
    """One ``--rounds 1`` run of ``checkout``'s own benchmark; its one sample."""
    core = pinned_core()
    pin = None if core is None else partial(os.sched_setaffinity, 0, {core})
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "samples.json")
        command = [
            sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
            "--workload", workload, "--rounds", "1", "--out", out,
        ]  # fmt: skip
        if seed is not None:
            command += ["--seed", str(seed)]
        done = subprocess.run(
            command,
            cwd=checkout,
            capture_output=True,
            text=True,
            check=False,
            preexec_fn=pin,
        )
        lines = done.stdout.strip().splitlines()
        if not lines or not os.path.exists(out):
            raise SystemExit(
                f"{checkout}: benchmark produced no result "
                f"(exit {done.returncode})\n{done.stderr}"
            )
        result = json.loads(lines[-1])
        with open(out, encoding="utf-8") as handle:
            report = json.load(handle)["sets"][0]["workloads"][workload]
    sample = report["samples"][0] if report["samples"] else {}
    return {
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digest": sample.get("digest"),
        "events": sample.get("counts", {}).get("sim.kernel.events"),
    }


def report(
    workload: str,
    runs: Dict[str, List[Dict[str, Any]]],
    firsts: Sequence[str],
    metrics: Sequence[Dict[str, Any]],
    seed: Optional[int],
) -> bool:
    """Print one workload's pair table and verdict block; True if any run failed."""
    pairs = len(firsts)
    print(f"# {workload}: {pairs} alternating pairs, seed "
          f"{seed if seed is not None else 'default'}")
    print("| pair | first | " + " | ".join(
        f"{m['name']} parent | change" for m in metrics) + " |")
    print("|---:|---|" + "---:|---:|" * len(metrics))
    for pair, first in enumerate(firsts):
        cells = " | ".join(
            f"{runs['parent'][pair]['metrics'][m['name']]:.6g} | "
            f"{runs['change'][pair]['metrics'][m['name']]:.6g}"
            for m in metrics
        )
        print(f"| {pair + 1} | {first} | {cells} |")

    print()
    for metric in metrics:
        name = metric["name"]
        verdict = judge(
            [run["metrics"][name] for run in runs["parent"]],
            [run["metrics"][name] for run in runs["change"]],
            better=metric["better"],
            bound=metric["bound"],
        )
        print(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"parent {verdict.parent_median:.6g} "
            f"({verdict.parent_quartiles[0]:.6g} .. {verdict.parent_quartiles[1]:.6g})"
            f" -> change {verdict.change_median:.6g} "
            f"({verdict.change_quartiles[0]:.6g} .. {verdict.change_quartiles[1]:.6g})"
            f" x{verdict.ratio:.3f}, per pair x{verdict.pair_ratio_median:.3f}"
            f" (x{verdict.pair_ratio_quartiles[0]:.3f} .. "
            f"x{verdict.pair_ratio_quartiles[1]:.3f}),"
            f" change better in {verdict.wins}/{pairs}"
            f" (worse in {verdict.losses}): {verdict.word}"
        )
    for what in ("digest", "events"):
        seen = {side: sorted({str(run[what]) for run in runs[side]}) for side in SIDES}
        same = seen["parent"] == seen["change"] and len(seen["parent"]) == 1
        print(f"{what}: {'equal on both sides' if same else 'DIFFERS'} "
              f"(parent {', '.join(seen['parent'])[:40]}; "
              f"change {', '.join(seen['change'])[:40]})")
    failed = {side: sum(run["failed"] for run in runs[side]) for side in SIDES}
    print(f"failed: parent {failed['parent']}, change {failed['change']}")
    return any(failed.values())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="DIR")
    parser.add_argument("--change", required=True, metavar="DIR")
    parser.add_argument(
        "--workload",
        action="append",
        metavar="NAME",
        help="repeatable; default: every workload in the change's BENCHMARK.json",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, help="default: the benchmark's own")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    metrics = benchmark["end_to_end"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]

    runs: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        workload: {side: [] for side in SIDES} for workload in workloads
    }
    firsts = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        firsts.append(order[0])
        # Every workload on one side, then every workload on the other,
        # so a pair's two samples of a workload sit equally far apart.
        for side in order:
            for workload in workloads:
                runs[workload][side].append(
                    run_once(checkouts[side], workload, args.seed)
                )
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    core = pinned_core()
    print("core: unpinned" if core is None else f"core: both sides pinned to {core}")
    print()
    any_failed = False
    for index, workload in enumerate(workloads):
        if index:
            print()
        any_failed |= report(workload, runs[workload], firsts, metrics, args.seed)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
