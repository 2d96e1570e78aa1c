"""Rotating, crash-safe JSONL trace sinks and their tolerant readers.

Write side
----------
:class:`JsonlTraceSink` appends complete JSON lines and flushes on every
drain, so a SIGKILL can tear at most the final line — never an earlier
one (appends are sequential).  When a shard exceeds ``rotate_bytes`` it
is renamed to ``<name>.<n>`` and a fresh file continues the stream; the
reader stitches rotations back together in order.

Read side
---------
:func:`read_events` skips undecodable lines (the torn tail a kill leaves
behind, or a line damaged by bit rot) instead of failing: a killed
campaign's shard must still merge into the campaign report.
:func:`merge_shards` combines shards deterministically — dedup by
``(member, seq)`` (a resumed campaign re-emits its replayed tail
byte-for-byte), then sort by ``(vtime, member, seq)`` — so the
merged timeline is a pure function of the shard contents, never of
read order.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro._util import replace_durable
from repro._vfs import current_vfs
from repro.observe.events import TraceEvent

#: Shard file name for one trace writer (member -1 = solo campaign).
_SHARD_RE = re.compile(r"^trace-(solo|supervisor|m(\d+))\.jsonl(\.\d+)?$")


def shard_name(member: int) -> str:
    """Canonical shard file name for one writer."""
    if member < 0:
        return "trace-solo.jsonl"
    return f"trace-m{member}.jsonl"


class JsonlTraceSink:
    """Append-only JSONL writer with size-based rotation."""

    def __init__(self, path: str,
                 rotate_bytes: Optional[int] = None) -> None:
        self.path = path
        self.rotate_bytes = rotate_bytes
        self.lines_written = 0
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)

    # ------------------------------------------------------------------
    def write_events(self, events: Iterable[TraceEvent]) -> None:
        """Append a batch of events; one flush per batch, not per line."""
        lines = [event.to_json() for event in events]
        if not lines:
            return
        self._maybe_rotate()
        vfs = current_vfs()
        data = ("\n".join(lines) + "\n").encode("utf-8")
        vfs.append_bytes(self.path, data)
        vfs.fsync(self.path)
        self.lines_written += len(lines)

    def _maybe_rotate(self) -> None:
        if self.rotate_bytes is None:
            return
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return
        if size < self.rotate_bytes:
            return
        # Number the rotation one past the *highest* existing suffix,
        # never into a hole: a crash (or cleanup) that removed `.2`
        # while `.3` survived must not make the next rotation `.2` —
        # the merge order (rotations oldest-first by number) would put
        # newer events before older ones.
        n = 0
        directory = os.path.dirname(os.path.abspath(self.path))
        base = os.path.basename(self.path)
        try:
            for name in os.listdir(directory):
                if name.startswith(base + "."):
                    suffix = name[len(base) + 1:]
                    if suffix.isdigit():
                        n = max(n, int(suffix))
        except OSError:
            pass
        replace_durable(self.path, f"{self.path}.{n + 1}")


# ----------------------------------------------------------------------
# Tolerant readers
# ----------------------------------------------------------------------
def read_events(path: str) -> Tuple[List[TraceEvent], int]:
    """Read one shard file; returns ``(events, skipped_lines)``.

    Damaged lines — the torn tail of a SIGKILLed writer, or anything
    else that fails to parse — are counted and skipped, never fatal.
    A missing file reads as empty.
    """
    events: List[TraceEvent] = []
    skipped = 0
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(TraceEvent.from_json(line))
                except ValueError:
                    skipped += 1
    except OSError:
        pass
    return events, skipped


def _rotation_order(name: str) -> Tuple[int, int]:
    """Sort key putting ``x.jsonl.1`` before ``x.jsonl.2`` before
    ``x.jsonl`` (rotations are older than the live file)."""
    match = _SHARD_RE.match(name)
    suffix = match.group(3) if match else None
    return (0, int(suffix[1:])) if suffix else (1, 0)


def shard_files(trace_dir: str) -> List[str]:
    """Every shard (and rotation) under a trace directory, in merge
    order: grouped per writer, rotations first, oldest first."""
    try:
        names = os.listdir(trace_dir)
    except OSError:
        return []
    matched = [n for n in names if _SHARD_RE.match(n)]
    matched.sort(key=lambda n: (n.split(".jsonl")[0], _rotation_order(n)))
    return [os.path.join(trace_dir, n) for n in matched]


def merge_shards(trace_dir: str) -> Tuple[List[TraceEvent], int]:
    """Deterministically merge every shard under ``trace_dir``.

    Returns ``(events, skipped_lines)``.  Duplicate ``(member, seq)``
    pairs — the replayed tail of a killed-and-resumed member — collapse
    to their first occurrence; the result is sorted by
    ``(vtime, member, seq)`` so the merged timeline never depends on
    file-system listing order.
    """
    seen: Dict[tuple, TraceEvent] = {}
    skipped = 0
    for path in shard_files(trace_dir):
        events, bad = read_events(path)
        skipped += bad
        for event in events:
            seen.setdefault(event.dedup_key, event)
    merged = sorted(seen.values(),
                    key=lambda e: (e.vtime, e.member, e.seq))
    return merged, skipped
