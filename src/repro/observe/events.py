"""Typed trace events: the vocabulary of the campaign event stream.

Every layer of the campaign — engine, supervised executor, fork-server
backend, two-stage pipeline, durability auditor — reports
what it does as :class:`TraceEvent` records on a
:class:`~repro.observe.bus.TraceBus`.  The kinds are a closed set
(:data:`EVENT_KINDS`): an unknown kind is a programming error and is
rejected at emit time, so the downstream report renderer can rely on the
vocabulary.

Events are plain data.  They never feed back into campaign decisions,
which is what makes the whole observability layer determinism-neutral:
a campaign with tracing on and a campaign with tracing off make exactly
the same RNG draws and cover exactly the same paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

#: The closed vocabulary of the trace stream.
EVENT_KINDS = frozenset({
    "exec",            # one test-case execution (sampled via --trace-sample)
    "new_path",        # coverage-interesting test case saved to the queue
    "crash",           # SEGFAULT outcome / crash-triage bundle written
    "worker_kill",     # watchdog SIGKILL or worker death
    "fault_injected",  # environment fault absorbed by the supervisor
    "checkpoint",      # campaign state snapshotted to disk
    "stage_enter",     # pipeline / profiling stage opened
    "stage_exit",      # pipeline / profiling stage closed
    "audit",           # durability-audit result for one component
})


@dataclass(frozen=True)
class TraceEvent:
    """One structured event on the campaign trace stream."""

    kind: str
    vtime: float  #: virtual-clock instant (campaign time, not wall time)
    seq: int  #: per-member monotonic sequence number (dedup key on merge)
    member: int = -1  #: writer index (-1 = the campaign's own shard)
    payload: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {self.kind!r}; "
                             f"known: {sorted(EVENT_KINDS)}")

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """One compact, key-sorted JSON line (the sink format)."""
        record = {"kind": self.kind, "vtime": self.vtime, "seq": self.seq,
                  "member": self.member}
        record.update(self.payload)
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        """Parse one sink line; raises ValueError on damage.

        The torn tail a SIGKILLed writer leaves behind surfaces here as
        a ValueError, which the tolerant reader skips.
        """
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"undecodable trace line: {exc}") from exc
        if not isinstance(record, dict):
            raise ValueError("trace line is not a JSON object")
        try:
            kind = record.pop("kind")
            vtime = float(record.pop("vtime"))
            seq = int(record.pop("seq"))
            member = int(record.pop("member", -1))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"trace line missing/bad header field: {exc}") \
                from exc
        return cls(kind=kind, vtime=vtime, seq=seq, member=member,
                   payload=record)

    @property
    def dedup_key(self):
        """Identity under the replay-after-restart contract.

        A member SIGKILLed mid-epoch resumes from its checkpoint and
        replays the interrupted tail bit-for-bit, re-emitting byte-
        identical events with the same (member, seq); the deterministic
        shard merge keeps one copy.
        """
        return (self.member, self.seq)
