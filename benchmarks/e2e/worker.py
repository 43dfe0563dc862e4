"""The measured process: set-up, then one timed full-size repetition.

``run.py`` starts one of these per sample, so every timing comes from a
fresh interpreter.  Set-up is everything a user pays before the first
useful event: interpreter start, ``import repro``, generating and
pre-drawing the workload's inputs, and a one-tenth-size warm-up
repetition that fills caches and finishes lazy initialisation.  The
result is one JSON object on the last line of standard output.

Times are reported twice: as measured (``*_raw_s``) and in *reference
seconds*, corrected for how fast this machine was running at that
moment.  A :class:`SpeedSampler` thread times a small fixed spin every
50 ms for the life of the process; the sandbox this benchmark was
defined on changes speed by up to 2x for minutes at a time, which CPU
time follows and a fixed spin therefore sees.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import resource
import sys
import threading
import time
from array import array
from heapq import heappop, heappush
from statistics import fmean
from typing import Dict, List, Optional

WARM_UP_SHARE = 0.1

#: The spin's CPU time beside a workload on the definition box at its
#: quietest; reference seconds are seconds of a machine that spins this
#: fast.
REFERENCE_SPIN_S = 0.0023
SPIN_STEPS = 6000
SAMPLE_PERIOD_S = 0.05


class SpeedSampler(threading.Thread):
    """Samples machine speed as the CPU time of a fixed spin.

    The spin allocates nothing the garbage collector tracks, so a
    collection of the workload's objects is never charged to it, and it
    reads its own thread's CPU clock, so waiting for the interpreter
    lock is not charged to it either.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._halt = threading.Event()
        self._table: Dict[int, int] = {}
        self._values = [float(i) for i in range(4096)]
        self.ended_at = array("d")
        self.spin_s = array("d")

    def _spin(self) -> float:
        table, values = self._table, self._values
        heap: List[float] = []
        total = 0.0
        for step in range(SPIN_STEPS):
            key = (step * 2654435761) & 4095
            table[key] = table.get(key, 0) + 1
            heappush(heap, values[key] * 0.5 + total * 1e-9)
            if len(heap) > 64:
                total += heappop(heap)
        return total

    def run(self) -> None:
        while not self._halt.wait(SAMPLE_PERIOD_S):
            begin = time.thread_time()
            self._spin()
            self.spin_s.append(time.thread_time() - begin)
            self.ended_at.append(time.monotonic())

    def halt(self) -> None:
        self._halt.set()
        self.join()

    def reference_seconds(self, begin: float, end: float) -> float:
        """``end - begin`` less the spins inside it, at reference speed."""
        inside = [
            spin
            for at, spin in zip(self.ended_at, self.spin_s)
            if begin <= at <= end
        ]
        own = (end - begin) - sum(inside)
        spins = inside or list(self.spin_s)
        if not spins:
            return own
        return own * fmean(REFERENCE_SPIN_S / spin for spin in spins)


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_workload(
    name: str, seed: int, scale: float, started: float, profile: bool
) -> Dict[str, object]:
    sampler = SpeedSampler()
    if not profile:
        sampler.start()
    from layers import bucket
    from workloads import SAME_DIGEST_AS, WORKLOADS

    prepare = WORKLOADS[name]
    run = prepare(seed, scale)
    warm = prepare(seed, scale * WARM_UP_SHARE)()
    twin = SAME_DIGEST_AS.get(name)
    twin_agrees = True
    if twin is not None:
        reference = WORKLOADS[twin](seed, scale * WARM_UP_SHARE)()
        twin_agrees = _digest(warm.payload) == _digest(reference.payload)

    profiler = cProfile.Profile() if profile else None
    begin = time.monotonic()
    if profiler is not None:
        profiler.enable()
    outcome = run()
    if profiler is not None:
        profiler.disable()
    end = time.monotonic()
    if not profile:
        sampler.halt()

    sample: Dict[str, object] = {
        "setup_raw_s": begin - started,
        "wall_raw_s": end - begin,
        "setup_s": sampler.reference_seconds(started, begin),
        "wall_s": sampler.reference_seconds(begin, end),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": _digest(outcome.payload),
        "counts": outcome.counts,
        "twin": twin,
        "twin_agrees": twin_agrees,
    }
    if profiler is not None:
        sample["layers"] = bucket(profiler)
    return sample


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--drivers", type=int, metavar="RUNS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--started", type=float, help="parent's time.monotonic()")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    if args.drivers is not None:
        from drivers import run_drivers

        result: Dict[str, object] = dict(run_drivers(args.seed, args.drivers))
    else:
        started = args.started if args.started is not None else time.monotonic()
        result = run_workload(
            args.workload, args.seed, args.scale, started, args.profile
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
