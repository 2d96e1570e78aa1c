"""The PM counter-map of Algorithm 1.

PMFuzz encodes each *transition* between two consecutive PM operations by
XORing their call-site IDs, and increments an 8-bit saturating counter at
that index in a 64 Ki-slot map.  After recording, the previous ID is
right-shifted by one bit so that A→B and B→A map to different slots
(preserving direction), exactly as in AFL's edge encoding.

A "PM path" in the evaluation is a distinct populated slot: a test case
covers a *new* PM path when it hits a slot no prior test case hit
(Algorithm 2's ``unseen`` predicate).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

#: Number of slots in the PM counter-map (matches AFL's 64 KiB map).
PM_MAP_SIZE = 1 << 16

#: AFL-style count bucketing: collapse raw counts into coarse classes so
#: "significantly different counter values" (Algorithm 2) is well defined.
_BUCKETS = (0, 1, 2, 3, 4, 8, 16, 32, 128)


def _bucket_of_scan(count: int) -> int:
    """Threshold-scan bucketing (the LUT's generator and test oracle)."""
    for i in range(len(_BUCKETS) - 1, -1, -1):
        if count >= _BUCKETS[i]:
            return i
    return 0


#: Counters are 8-bit saturating, so every reachable value is covered by
#: a 256-entry lookup table — one index instead of up to nine compares
#: on the Algorithm-2 prioritization path.
_BUCKET_LUT = tuple(_bucket_of_scan(c) for c in range(256))


def bucket_of(count: int) -> int:
    """Return the bucket index for a raw 8-bit counter value."""
    if 0 <= count < 256:
        return _BUCKET_LUT[count]
    return _bucket_of_scan(count)


class PMCounterMap:
    """Per-execution PM transition counter map (Algorithm 1)."""

    __slots__ = ("counters", "touched", "_prev_id")

    def __init__(self) -> None:
        self.counters = bytearray(PM_MAP_SIZE)
        #: Slots hit this execution (lets consumers avoid full-map scans).
        self.touched = set()
        self._prev_id = 0

    def update(self, op_id: int) -> int:
        """Record one PM operation; returns the map slot that was hit.

        Implements Algorithm 1: ``loc = curID ^ prevID``; increment
        (saturating at 255); ``prevID = curID >> 1``.
        """
        loc = (op_id ^ self._prev_id) & (PM_MAP_SIZE - 1)
        if self.counters[loc] != 0xFF:
            self.counters[loc] += 1
        self.touched.add(loc)
        self._prev_id = op_id >> 1
        return loc

    def reset(self) -> None:
        """Clear counters and transition state for a fresh execution.

        In place: only the slots hit since the previous reset are
        zeroed, so the 64 KiB map is allocated once per map lifetime
        (the executor pools one map across executions) instead of once
        per execution.
        """
        counters = self.counters
        for slot in self.touched:
            counters[slot] = 0
        self.touched.clear()
        self._prev_id = 0

    def preload(self, pairs, prev_id: int) -> None:
        """Replay a recorded ``(slot, count)`` delta into a fresh map.

        Used by the warm-open cache to re-apply the execution prefix's
        PM transitions without re-executing it; ``prev_id`` restores
        Algorithm 1's transition chain.
        """
        counters = self.counters
        touched = self.touched
        for slot, count in pairs:
            counters[slot] = count
            touched.add(slot)
        self._prev_id = prev_id

    @property
    def prev_id(self) -> int:
        """The ``prev >> 1`` transition-chain state (for prefix capture)."""
        return self._prev_id

    def sparse(self):
        """Yield (slot, count) for the slots hit this execution."""
        counters = self.counters
        return [(slot, counters[slot]) for slot in self.touched]

    def nonzero_slots(self) -> List[int]:
        """Return the indices of all populated slots (PM paths hit)."""
        return [i for i, c in enumerate(self.counters) if c]

    def items(self) -> Iterator[Tuple[int, int]]:
        """Yield (slot, raw count) for populated slots."""
        for i, c in enumerate(self.counters):
            if c:
                yield i, c

    def path_count(self) -> int:
        """Number of distinct PM transitions (populated slots)."""
        return sum(1 for c in self.counters if c)

