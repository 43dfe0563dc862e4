"""End-to-end host-time benchmark of the simulator (see README.md).

A closed, batch load: fixed simulated inputs generated from ``--seed``
are run to completion, one process and one thread at a time, and the
harness reports how much host time, set-up time and memory that took.
Every sample comes from a fresh ``worker.py`` subprocess and workloads
take turns round-robin, so a slow phase of the machine lands on every
workload instead of on one; every metric is the median over samples.

``--trace 1`` adds one profiled repetition per workload for the
per-layer metrics and the layer drivers, outside the timed rounds.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

E2E_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(E2E_DIR))
SRC_DIR = os.path.join(ROOT, "src")
WORKER = os.path.join(E2E_DIR, "worker.py")
EXPECTED = os.path.join(E2E_DIR, "expected.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 1077
DEFAULT_ROUNDS = 7
SMOKE_SCALE = 0.05
WORKER_TIMEOUT_S = 150.0

Sample = Dict[str, Any]
Metrics = Dict[str, Dict[str, Any]]


def load_json(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        loaded = json.load(handle)
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return loaded


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def start_worker(arguments: Sequence[str]) -> Sample:
    """Run ``worker.py`` to completion and parse its result line.

    A worker that raises, times out or prints no result yields
    ``{"error": ...}``: the caller counts the sample as failed.
    """
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC_DIR, environment.get("PYTHONPATH")) if part
    )
    # Hash randomisation changes dict and set layouts between
    # processes, which is input the seed does not control.
    environment["PYTHONHASHSEED"] = "0"
    try:
        finished = subprocess.run(
            [sys.executable, WORKER, *arguments],
            env=environment,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {WORKER_TIMEOUT_S:.0f} s"}
    if finished.returncode != 0:
        tail = finished.stderr.strip().splitlines()[-1:]
        return {"error": f"worker exit {finished.returncode}: {' '.join(tail)}"}
    try:
        return dict(json.loads(finished.stdout.strip().splitlines()[-1]))
    except (IndexError, ValueError):
        return {"error": "worker printed no result"}


def take_sample(workload: str, seed: int, scale: float, profile: bool) -> Sample:
    arguments = [
        "--workload", workload,
        "--seed", str(seed),
        "--scale", repr(scale),
        "--started", repr(time.monotonic()),
    ]
    if profile:
        arguments.append("--profile")
    return start_worker(arguments)


def measure(
    workloads: Sequence[str],
    seed: int,
    scale: float,
    rounds: Optional[int],
    seconds: Optional[float],
) -> Dict[str, List[Sample]]:
    """Untraced samples per workload, one per workload per round.

    Stops after ``rounds`` rounds, or before the round that would carry
    the run past ``seconds``, whichever comes first.
    """
    samples: Dict[str, List[Sample]] = {name: [] for name in workloads}
    began = time.monotonic()
    done = 0
    while True:
        for name in workloads:
            samples[name].append(take_sample(name, seed, scale, profile=False))
        done += 1
        if rounds is not None and done >= rounds:
            break
        elapsed = time.monotonic() - began
        if seconds is not None and elapsed * (done + 1) / done > seconds:
            break
    return samples


# ----------------------------------------------------------------------
# Judging
# ----------------------------------------------------------------------
class Report:
    """One workload's samples judged against each other and expected.json.

    A sample fails when its worker failed, when its digest or exact
    counts differ from the first sample's or (at the pinned seed and
    size) from expected.json, or when a fast-forward warm-up disagreed
    with its exact twin.  A failed sample fails all its ``sim_ops``.
    """

    def __init__(
        self,
        workload: str,
        seed: int,
        scale: float,
        samples: List[Sample],
        expected: Dict[str, Any],
    ) -> None:
        self.workload = workload
        self.samples = samples
        self.problems: List[str] = []
        entry = expected["workloads"][workload]
        self.sim_ops = max(1, round(entry["sim_ops"] * scale))
        pinned = entry["pinned"].get(repr(scale)) if seed == expected["seed"] else None
        self.finished = [s for s in samples if "error" not in s]
        first = pinned or (self.finished[0] if self.finished else None)
        failed = 0
        for index, sample in enumerate(samples):
            problem = None
            if "error" in sample:
                problem = str(sample["error"])
            elif sample["digest"] != first["digest"]:
                problem = f"result digest {sample['digest'][:12]} differs"
            elif sample["counts"] != first["counts"]:
                problem = "exact counts differ"
            elif not sample["twin_agrees"]:
                problem = f"warm-up differs from {sample['twin']}'s"
            if problem is not None:
                failed += 1
                where = "expected.json" if pinned else "the first sample"
                self.problems.append(
                    f"{workload} sample {index}: {problem} (against {where})"
                )
        self.attempted = self.sim_ops * len(samples)
        self.failed = self.sim_ops * failed

    def fail_all(self, problem: str) -> None:
        self.failed = self.attempted
        self.problems.append(f"{self.workload}: {problem}")

    @property
    def digest(self) -> Optional[str]:
        return self.finished[0]["digest"] if self.finished else None

    @property
    def twin(self) -> Optional[str]:
        """The workload whose digest this one's must equal, if any."""
        return self.finished[0]["twin"] if self.finished else None

    def median(self, key: str) -> float:
        return statistics.median(float(s[key]) for s in self.finished)

    def end_to_end(self, units: Dict[str, str]) -> Metrics:
        """Medians over finished samples, with quartiles for display."""
        if not self.finished:
            return {}
        columns = {
            "ops_per_s": [self.sim_ops / s["wall_s"] for s in self.finished],
            "setup_s": [s["setup_s"] for s in self.finished],
            "peak_rss_mb": [s["peak_rss_mb"] for s in self.finished],
        }
        metrics: Metrics = {}
        for name, values in columns.items():
            metrics[name] = {
                "value": statistics.median(values),
                "unit": units[name],
            }
            if len(values) > 1:
                low, _mid, high = statistics.quantiles(values, n=4)
                metrics[name]["quartiles"] = [low, high]
        return metrics


def per_layer(
    report: Report, traced: Sample, drivers: Dict[str, float], units: Dict[str, str]
) -> Metrics:
    """The traced sample's layer metrics, exact counts and the drivers."""
    values: Dict[str, float] = {**traced["layers"], **traced["counts"], **drivers}
    values["trace.overhead_ratio"] = traced["wall_raw_s"] / report.median("wall_raw_s")
    return {
        name: {"value": value, "unit": units[name]} for name, value in values.items()
    }


def print_metrics(title: str, metrics: Metrics) -> None:
    print(title)
    width = max((len(name) for name in metrics), default=0)
    for name, metric in metrics.items():
        line = f"  {name.ljust(width)}  {metric['value']:>14.6g} {metric['unit']}"
        if "quartiles" in metric:
            low, high = metric["quartiles"]
            line += f"  (quartiles {low:.6g} .. {high:.6g})"
        print(line)


def run_set(
    args: argparse.Namespace,
    expected: Dict[str, Any],
    units: Dict[str, str],
    scale: float,
) -> Dict[str, Any]:
    """One full set: timed rounds, then (with --trace) the traced pass."""
    rounds, seconds = args.rounds, args.seconds
    if rounds is None and seconds is None:
        rounds = DEFAULT_ROUNDS
    if args.trace and seconds is not None:
        # Under a time budget the traced repetition (3-5x a timed one)
        # is the run; one untraced round is the base for its overhead.
        rounds = 1
    samples = measure(args.workload, args.seed, scale, rounds, seconds)
    reports = {
        name: Report(name, args.seed, scale, samples[name], expected)
        for name in args.workload
    }
    for report in reports.values():
        twin = reports.get(report.twin or "")
        if twin is not None and report.digest != twin.digest:
            report.fail_all(f"digest differs from {twin.workload}'s")

    drivers: Sample = {}
    if args.trace:
        runs = 1 if args.smoke else 5
        drivers = start_worker(["--seed", str(args.seed), "--drivers", str(runs)])
    result: Dict[str, Any] = {"seed": args.seed, "scale": scale, "workloads": {}}
    for name, report in reports.items():
        metrics = report.end_to_end(units)
        speed = report.median("wall_raw_s") / report.median("wall_s") if metrics else 0
        print_metrics(
            f"== {name}: seed {args.seed}, {len(report.samples)} samples, "
            f"failed_share {report.failed / report.attempted:.6g}, "
            f"machine at {speed:.2f}x reference time",
            metrics,
        )
        layers: Metrics = {}
        traced: Optional[Sample] = None
        if "error" in drivers:
            report.fail_all(f"layer drivers: {drivers['error']}")
        elif args.trace and report.finished:
            traced = take_sample(name, args.seed, scale, profile=True)
            judged = Report(name, args.seed, scale, [traced], expected)
            if judged.failed or judged.digest != report.digest:
                report.fail_all(
                    "; ".join(judged.problems) or "traced digest differs"
                )
            else:
                layers = per_layer(report, traced, drivers, units)
                print_metrics(f"-- {name}: traced repetition", layers)
        for problem in report.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        result["workloads"][name] = {
            "attempted": report.attempted,
            "failed": report.failed,
            "sim_ops": report.sim_ops,
            "end_to_end": metrics,
            "per_layer": layers,
            "samples": report.samples,
            "traced_sample": traced,
        }
    return result


def result_line(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The contract's result object for one set.

    Metric names carry a ``<workload>/`` prefix only when the set held
    more than one workload.
    """
    workloads: Dict[str, Dict[str, Any]] = result["workloads"]
    kind = "per_layer" if trace else "end_to_end"
    metrics: Metrics = {}
    for name, entry in workloads.items():
        prefix = f"{name}/" if len(workloads) > 1 else ""
        for metric, body in entry[kind].items():
            metrics[prefix + metric] = {"value": body["value"], "unit": body["unit"]}
    failed = sum(entry["failed"] for entry in workloads.values())
    return {
        "correct": failed == 0,
        "attempted": sum(entry["attempted"] for entry in workloads.values()),
        "failed": failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def update_expected(workloads: Sequence[str], path: str) -> int:
    """Pin digest and counts (full and smoke size) and the frozen sim_ops."""
    expected: Dict[str, Any] = {"seed": DEFAULT_SEED, "workloads": {}}
    table: Dict[str, Dict[str, Any]] = expected["workloads"]
    twins: Dict[str, str] = {}
    for scale in (1.0, SMOKE_SCALE):
        samples = measure(workloads, DEFAULT_SEED, scale, 1, None)
        for name, (sample,) in samples.items():
            if "error" in sample:
                print(f"FAILED {name}: {sample['error']}", file=sys.stderr)
                return 1
            entry = table.setdefault(name, {"sim_ops": 0, "pinned": {}})
            entry["pinned"][repr(scale)] = {
                "digest": sample["digest"],
                "counts": sample["counts"],
            }
            if scale == 1.0:
                entry["sim_ops"] = sample["counts"]["sim.kernel.events"]
            if sample["twin"] in table:
                twins[name] = sample["twin"]
    for name, twin in twins.items():
        # Frozen to the exact engine's event count, so that dispatching
        # fewer events cannot read as more work done.
        table[name]["sim_ops"] = table[twin]["sim_ops"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


def disagreements(
    first: Dict[str, Any], second: Dict[str, Any], benchmark: Dict[str, Any]
) -> List[str]:
    """Where two sets of the same code differ by more than the bound."""
    complaints = []
    for spec in benchmark["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        for workload, entry in first["workloads"].items():
            a = entry["end_to_end"][name]["value"]
            b = second["workloads"][workload]["end_to_end"][name]["value"]
            if abs(a - b) / min(a, b) > bound:
                complaints.append(
                    f"{workload} {name}: {a:.6g} and {b:.6g} differ by more "
                    f"than {bound:.0%}"
                )
    return complaints


def parse_args(argv: Optional[List[str]], names: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=names,
        help="measure only this workload (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--rounds", type=int,
        help=f"samples per workload (default {DEFAULT_ROUNDS} without --seconds)",
    )
    parser.add_argument(
        "--seconds", type=float,
        help="stop before the round that would pass this many seconds",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1,
        help="1: add the profiled repetition and report per-layer metrics "
        "(default 0; 1 with --smoke)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="everything at one-twentieth size: one round and the trace",
    )
    parser.add_argument("--out", metavar="FILE", help="write every sample as JSON")
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run two sets; fail unless their medians agree within the bounds",
    )
    parser.add_argument(
        "--update-expected", action="store_true",
        help="rewrite expected.json from the default seed",
    )
    parser.add_argument("--expected", default=EXPECTED, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if not args.workload:
        args.workload = names
    if args.smoke and args.rounds is None and args.seconds is None:
        args.rounds = 1
    if args.trace is None:
        args.trace = int(args.smoke)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: no simulator to measure at {SRC_DIR}", file=sys.stderr)
        return 2
    benchmark = load_json(BENCHMARK)
    names = [w["name"] for w in benchmark["workloads"]]
    units = {
        m["name"]: m["unit"]
        for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    args = parse_args(argv, names)
    if args.update_expected:
        return update_expected(args.workload, args.expected)
    expected = load_json(args.expected)
    scale = SMOKE_SCALE if args.smoke else 1.0

    sets = [run_set(args, expected, units, scale)]
    complaints: List[str] = []
    if args.selfcheck:
        sets.append(run_set(args, expected, units, scale))
        complaints = disagreements(sets[0], sets[1], benchmark)
        for complaint in complaints:
            print(f"SELFCHECK {complaint}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"sets": sets}, handle, indent=2)
            handle.write("\n")
    lines = [result_line(one, bool(args.trace)) for one in sets]
    line = lines[-1]
    line["correct"] = all(one["correct"] for one in lines) and not complaints
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
