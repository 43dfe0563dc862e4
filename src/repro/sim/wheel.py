"""Calendar-queue timer wheel: the kernel's alternative scheduler.

A single-level timer wheel with a sorted spill for far-future events.
Time is divided into fixed-width slots (``slot = int(time * scale)``
with the width a power of two, so the scaling multiply is exact and the
slot map is monotone); each slot hashes onto one of ``nbuckets``
unsorted buckets.  Scheduling an event appends to its bucket — O(1) —
and cancellation is a flag write the popping caller acts on.  Dispatch drains
one slot at a time into a sorted *ready list* and consumes it with a
moving index, so within-slot order is exact ``(time, sequence)`` —
bit-identical to the reference binary heap, same-tick tie-breaks
included.

Three-tier layout, by distance from the cursor (the slot currently
being consumed):

* ``slot <= cursor`` — straight into the ready list by bisection (rare:
  an event scheduled into the slot being drained);
* ``cursor < slot < cursor + nbuckets`` — bucket append (the common
  case: every TTR re-arm within the wheel's horizon);
* beyond the horizon — a ``heapq`` spill, merged slot-by-slot as the
  cursor reaches it, so far-future events degrade gracefully to the
  heap's O(log n) instead of aliasing around the wheel.

The wheel adapts its slot width to the workload, deterministically —
resizes are pure functions of the push/pop sequence, never of wall
time, so replays stay bit-identical.  A drained slot holding more than
``_NARROW_LIMIT`` entries narrows the width (splitting clustered
events across slots); scans that cross many empty slots per dispatched
event accumulate *scan debt* and widen it (coalescing a sparse
horizon).  Either rebuild is O(pending) and amortizes away.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from heapq import heappush
from typing import Generic, List, Optional, Tuple

from repro.core.errors import SimulationError
from repro.core.types import Seconds
from repro.sim.kernel import Cancellable, _ItemT

#: Buckets on the wheel (power of two; the slot→bucket map is a mask).
_NBUCKETS = 1024

#: Initial slot width in seconds (a power of two).  Deliberately huge:
#: until a slot crowds past ``_NARROW_LIMIT`` live entries the wheel is
#: effectively a single sorted ready vector — C-speed ``insort`` at the
#: tail, index pop at the front — which beats bucket hopping for the
#: small pending sets typical of one proxy tree.  Crowding narrows it
#: into a real calendar queue.
_INITIAL_WIDTH = 4096.0

#: Live (unconsumed) ready entries beyond which the slot width narrows.
_NARROW_LIMIT = 2048

#: Consumed prefix length that triggers ready-list compaction.
_COMPACT_LIMIT = 4096

#: Accumulated empty-slot scan debt that triggers widening.
_WIDEN_DEBT = 2048

#: Empty slots a drain may cross "for free" before accruing debt.
_FREE_SCAN = 4

#: Target entries per slot after a narrowing rebuild.
_NARROW_TARGET = 256


class TimerWheelScheduler(Generic[_ItemT]):
    """Amortized O(1) schedule/cancel calendar queue.

    Drop-in :class:`repro.sim.kernel.Scheduler` implementation; see the
    module docstring for the layout and the equivalence guarantee.
    """

    __slots__ = (
        "_ready",
        "_pos",
        "_buckets",
        "_bucket_count",
        "_overflow",
        "_cursor",
        "_scale",
        "_scan_debt",
        "_narrow_limit",
    )

    def __init__(self) -> None:
        #: Entries of the slot at ``_cursor`` (plus late pushes behind
        #: it), ascending; ``_pos`` is the consumption index.
        self._ready: List[Tuple[Seconds, int, _ItemT]] = []
        self._pos = 0
        self._buckets: List[List[Tuple[Seconds, int, _ItemT]]] = [
            [] for _ in range(_NBUCKETS)
        ]
        self._bucket_count = 0
        self._overflow: List[Tuple[Seconds, int, _ItemT]] = []
        self._cursor = -1
        #: 1 / slot width; a power of two, so ``time * scale`` is exact.
        self._scale = 1.0 / _INITIAL_WIDTH
        self._scan_debt = 0
        self._narrow_limit = _NARROW_LIMIT

    # ------------------------------------------------------------------
    # Scheduler protocol: push / pop / size are the per-event
    # primitives (pop hands back cancelled entries too — skipping and
    # recycling them is the caller's); peek / advance / pending_count
    # serve peek_next_time, advance_clock and introspection.  The wheel
    # still purges cancelled entries of its own accord where crowding
    # decisions need a live count, but never down to empty: a caller
    # that read size() > 0 is owed an entry.
    # ------------------------------------------------------------------
    def push(self, entry: Tuple[Seconds, int, _ItemT]) -> None:
        slot = int(entry[0] * self._scale)
        cursor = self._cursor
        if slot <= cursor:
            # Push into the slot being consumed (the common case while
            # the width is wide, and where a popped entry handed back
            # at a run's horizon lands): keep the ready list sorted so
            # it still pops in exact order.  ``lo=pos`` skips the
            # consumed prefix, and tail inserts cost one bisect.
            pos = self._pos
            ready = self._ready
            insort(ready, entry, pos)
            if len(ready) - pos > self._narrow_limit:
                # Crowding may be an illusion: cancel churn (timer
                # re-arms) leaves flagged entries ahead of the
                # consumption index.  Purge before deciding to narrow,
                # or churn narrows the wheel into overflow thrash.
                self._purge_ready()
                if len(ready) > self._narrow_limit:
                    self._narrow(ready)
        elif slot - cursor < _NBUCKETS:
            self._buckets[slot & (_NBUCKETS - 1)].append(entry)
            self._bucket_count += 1
        else:
            heappush(self._overflow, entry)

    def pop(self) -> Tuple[Seconds, int, _ItemT]:
        while self._pos >= len(self._ready):
            # A refill that rebuilt the wheel leaves ready empty and
            # the entries in their new buckets: go round again.
            if not self._refill():
                raise IndexError("pop from an empty timer wheel")
        ready = self._ready
        pos = self._pos
        entry = ready[pos]
        pos += 1
        if pos >= _COMPACT_LIMIT:
            # Shed the consumed prefix so a long-lived slot (huge
            # width, steady churn) stays bounded.
            del ready[:pos]
            pos = 0
        self._pos = pos
        return entry

    def size(self) -> int:
        return (
            len(self._ready) - self._pos + self._bucket_count + len(self._overflow)
        )

    def peek(self) -> Optional[Tuple[Seconds, int, _ItemT]]:
        while True:
            ready = self._ready
            pos = self._pos
            n = len(ready)
            while pos < n and ready[pos][2].cancelled:
                pos += 1
            self._pos = pos
            if pos < n:
                return ready[pos]
            if not self._refill():
                return None

    def advance(self, to: Seconds) -> None:
        """Jump the cursor to ``to``'s slot without scanning up to it.

        The fast-forward seam: the kernel has already verified nothing
        pending precedes ``to``, so every slot in between holds only
        cancelled leftovers (dropped here) — the wheel skips the
        empty-slot walk entirely.
        """
        slot = int(to * self._scale)
        if slot <= self._cursor:
            return
        ready = self._ready
        for index in range(self._pos, len(ready)):
            if not ready[index][2].cancelled:
                raise SimulationError(
                    f"cannot advance wheel to t={to}: entry pending at "
                    f"t={ready[index][0]}"
                )
        ready.clear()
        self._pos = 0
        # Land just *before* the slot so the next drain scans it: an
        # entry exactly at ``to`` may still be pending in its bucket.
        self._cursor = slot - 1

    def pending_count(self) -> int:
        count = sum(
            1 for entry in self._ready[self._pos :] if not entry[2].cancelled
        )
        for bucket in self._buckets:
            count += sum(1 for entry in bucket if not entry[2].cancelled)
        count += sum(1 for entry in self._overflow if not entry[2].cancelled)
        return count

    # ------------------------------------------------------------------
    # Slot draining
    # ------------------------------------------------------------------
    def _refill(self) -> bool:
        """Advance the cursor to the next populated slot; fill ready.

        Returns False when the wheel is empty.  Merges overflow entries
        whose slot has come within reach, so heap-spilled events fire
        in exactly the order the reference heap would fire them.
        """
        overflow = self._overflow
        scale = self._scale
        if self._bucket_count == 0:
            if not overflow:
                return False
            # Jump straight to the spill's head slot: every bucket is
            # empty, so no scan is needed.  (Never retreat: a stale
            # cancelled entry behind the cursor drains at the cursor.)
            slot = int(overflow[0][0] * scale)
            ready = self._ready
            ready.clear()
            self._pos = 0
            heappop = heapq.heappop
            while overflow and int(overflow[0][0] * scale) <= slot:
                ready.append(heappop(overflow))
            if slot > self._cursor:
                self._cursor = slot
            if len(ready) > self._narrow_limit:
                self._purge_ready()
                if len(ready) > self._narrow_limit:
                    self._narrow(ready)
            return True
        buckets = self._buckets
        mask = _NBUCKETS - 1
        overflow_slot = int(overflow[0][0] * scale) if overflow else -1
        slot = self._cursor
        stepped = 0
        while True:
            slot += 1
            if 0 <= overflow_slot <= slot:
                # The spill's head comes due at (or before) this slot:
                # merge it with whatever the slot's bucket holds.  The
                # scan position never retreats — spill entries behind it
                # are cancelled leftovers and drain here harmlessly.
                bucket = buckets[slot & mask]
                drained = []
                heappop = heapq.heappop
                while overflow and int(overflow[0][0] * scale) <= slot:
                    drained.append(heappop(overflow))
                if bucket:
                    self._bucket_count -= len(bucket)
                    drained.extend(bucket)
                    drained.sort()
                    bucket.clear()
                old = self._ready
                old.clear()
                self._ready = drained
                break
            bucket = buckets[slot & mask]
            if bucket:
                self._bucket_count -= len(bucket)
                bucket.sort()
                # Swap: the drained bucket becomes the ready list and
                # the exhausted ready list is recycled as the bucket.
                old = self._ready
                old.clear()
                buckets[slot & mask] = old
                self._ready = bucket
                break
            stepped += 1
        self._pos = 0
        self._cursor = slot
        if stepped:
            self._note_scan(stepped)
        if len(self._ready) > self._narrow_limit:
            self._purge_ready()
            if len(self._ready) > self._narrow_limit:
                self._narrow(self._ready)
        return True

    def _purge_ready(self) -> None:
        """Shed the consumed prefix and cancelled entries from ready.

        In place (``ready[:] = ...``) so aliases held by callers stay
        valid; resets the consumption index to the front.  An
        all-cancelled list keeps its last entry, so the purge a
        ``pop()`` triggers cannot leave that pop without an entry.
        """
        ready = self._ready
        live = [entry for entry in ready[self._pos :] if not entry[2].cancelled]
        ready[:] = live or ready[-1:]
        self._pos = 0

    # ------------------------------------------------------------------
    # Deterministic adaptation
    # ------------------------------------------------------------------
    def _note_scan(self, stepped: int) -> None:
        """Accumulate empty-slot scan debt; widen when it piles up."""
        debt = self._scan_debt + stepped - _FREE_SCAN
        if debt < 0:
            debt = 0
        self._scan_debt = debt
        if debt > _WIDEN_DEBT:
            # Slots are mostly empty: widen ×8 to shorten the scans.
            self._rebuild(self._scale * 0.125)

    def _narrow(self, ready: List[Tuple[Seconds, int, _ItemT]]) -> None:
        """Split an overcrowded slot by shrinking the slot width."""
        pos = self._pos
        count = len(ready) - pos
        first = ready[pos][0]
        last = ready[-1][0]
        span = last - first
        if span <= 0.0:
            # A coincident-timestamp cluster no width can split; back
            # off so each retry costs geometrically less often.
            self._narrow_limit *= 2
            return
        wanted = count / (_NARROW_TARGET * span)
        doublings = max(1, math.ceil(math.log2(wanted / self._scale)))
        new_scale = self._scale * (2.0**doublings)
        if int(first * new_scale) == int(last * new_scale):
            self._narrow_limit *= 2
            return
        self._narrow_limit = _NARROW_LIMIT
        self._rebuild(new_scale)

    def _rebuild(self, scale: float) -> None:
        """Re-place every queued entry under a new slot width."""
        entries = self._ready[self._pos :]
        for bucket in self._buckets:
            entries.extend(bucket)
            bucket.clear()
        entries.extend(self._overflow)
        self._overflow.clear()
        self._ready.clear()
        self._pos = 0
        self._bucket_count = 0
        self._scan_debt = 0
        self._scale = scale
        # Just below the earliest entry's slot, so that slot is still
        # scanned (a rebuild never runs on an empty wheel).
        self._cursor = int(min(entries)[0] * scale) - 1
        # Cancelled entries ride along: they surface at pop() like any
        # other, and dropping them here could empty a wheel whose
        # caller has just been told size() > 0.
        for entry in entries:
            self.push(entry)

    def __repr__(self) -> str:
        return (
            f"TimerWheelScheduler(pending={self.pending_count()}, "
            f"width={1.0 / self._scale}, cursor={self._cursor})"
        )


__all__ = ["TimerWheelScheduler", "Cancellable"]
