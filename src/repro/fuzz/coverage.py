"""Global coverage bookkeeping (the virgin-map logic of AFL).

Both coverage signals — the branch edge map and the PM counter-map — are
64 Ki arrays of 8-bit saturating counters per execution.  This module
keeps the *global* view across a campaign: for each slot, the set of
count buckets ever observed.  A new slot (never hit before) or a new
bucket at a known slot is "new coverage", the event that makes a test
case interesting.

The same class serves Algorithm 2: ``classify`` distinguishes *unseen*
slots (priority 2) from *different-counter* slots (priority 1).

Executions report coverage *sparsely* — as (slot, count) pairs for the
slots actually hit — so a campaign never scans the full 64 Ki map.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.instrument.counter_map import bucket_of

MAP_SIZE = 1 << 16

#: Sparse per-execution coverage: (slot, raw count) pairs.
SparseMap = Iterable[Tuple[int, int]]


class GlobalCoverage:
    """Accumulated coverage over one fuzzing campaign."""

    def __init__(self) -> None:
        #: slot -> bitmask of count buckets ever seen (absent = virgin).
        self.virgin: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def classify(self, sparse: SparseMap) -> Tuple[bool, bool, List[int]]:
        """Compare one execution's coverage against the global state.

        Returns ``(has_new_slot, has_new_bucket, new_slots)`` without
        modifying the global state:

        * ``has_new_slot`` — some populated slot was never hit before
          (Algorithm 2's *unseen*);
        * ``has_new_bucket`` — a known slot was hit with a significantly
          different count (a new AFL bucket — *diffCounter*).
        """
        new_slot = False
        new_bucket = False
        new_slots: List[int] = []
        virgin = self.virgin
        for slot, count in sparse:
            if not count:
                continue
            mask = 1 << (bucket_of(count) & 7)
            seen = virgin.get(slot, 0)
            if seen == 0:
                new_slot = True
                new_slots.append(slot)
            elif not seen & mask:
                new_bucket = True
        return new_slot, new_bucket, new_slots

    def update(self, sparse: SparseMap) -> Tuple[bool, bool]:
        """Merge one execution's coverage; returns (new_slot, new_bucket)."""
        new_slot = False
        new_bucket = False
        virgin = self.virgin
        for slot, count in sparse:
            if not count:
                continue
            mask = 1 << (bucket_of(count) & 7)
            seen = virgin.get(slot, 0)
            if seen == 0:
                new_slot = True
                virgin[slot] = mask
            elif not seen & mask:
                new_bucket = True
                virgin[slot] = seen | mask
        return new_slot, new_bucket

    # ------------------------------------------------------------------
    @property
    def slots_covered(self) -> int:
        """Total distinct slots ever hit (the Figure 13 y-axis when this
        instance tracks the PM counter-map)."""
        return len(self.virgin)

    def covered_slots(self) -> Iterable[int]:
        """Iterate the indices of all covered slots."""
        return iter(self.virgin)


class VectorGlobalCoverage(GlobalCoverage):
    """Never constructed: ``perfbench/pmbench/layers.py`` still wraps this
    name's ``update``, so it stays until the benchmark drops it."""

    update = GlobalCoverage.update
