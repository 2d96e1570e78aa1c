"""In-memory span recording and self-time arithmetic.

A span is ``(name, start, end, parent, run)``: the layer it measures,
its ``perf_counter`` interval, the index of the span that was open when
it began (``-1`` for a root), and the benchmark iteration it belongs to.
Spans stay in memory while the benchmark runs and are written out once
at the end (:meth:`SpanRecorder.dump`).

A span's *self time* is its duration minus the part of its interval
that its child spans cover.  Summed over every span, self times equal
the total duration of the roots, so the root layer's self time is the
traced wall time no layer accounts for (``engine.unattributed_s``).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

#: (name, start, end, parent index, run id)
Span = Tuple[str, float, float, int, int]


class SpanRecorder:
    """Stack-structured span collector for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.run = 0
        self._stack: List[int] = []
        #: Forked workers inherit the recorder; only this pid records.
        self.pid = os.getpid()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def parent_name(self) -> str:
        """Name of the innermost open span ('' at the root)."""
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def finished(self) -> List[Span]:
        return [tuple(s) for s in self.spans]

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run}) + "\n")


def _covered(parent: Tuple[float, float],
             children: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``parent``."""
    lo, hi = parent
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(children):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time, in the order of ``spans``."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _covered((start, end), children.get(i, ()))
            for i, (name, start, end, parent, run) in enumerate(spans)]


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per span name."""
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)


def root_wall(spans: Sequence[Span]) -> float:
    """Total duration of the root spans (the traced wall time)."""
    return sum(end - start for _, start, end, parent, _ in spans
               if parent < 0)
