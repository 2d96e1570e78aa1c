"""The durable protocols under audit, one :class:`AuditProtocol` each.

Every component follows the same shape:

* ``setup(root)`` builds the durable baseline state (this runs *before*
  tracing; the baseline is the snapshot every crash state starts from)
  and returns a context dict of names/keys the checks need;
* ``run(root, ctx)`` performs one representative pass of the protocol's
  real production code — this is what runs under
  :class:`~repro.audit.trace.TracingVFS` and produces the op trace;
* ``recover(root, ctx)`` invokes the component's *real* recovery entry
  point against a materialized crash state;
* ``invariants`` are the typed per-component
  :class:`~repro.audit.invariants.RecoveryInvariant` checks.

Everything is deterministic — fixed payloads and file names — so the
same component and budget always enumerate the same states and render
the same report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.audit.invariants import RecoveryInvariant

#: Component names ``python -m repro audit --component`` accepts.
COMPONENTS = ("checkpoint", "sink")


@dataclass
class AuditProtocol:
    """One durable protocol wired for auditing."""

    name: str
    description: str
    setup: Callable[[str], dict]
    run: Callable[[str, dict], None]
    recover: Callable[[str, dict], object]
    invariants: List[RecoveryInvariant] = field(default_factory=list)


# ----------------------------------------------------------------------
# checkpoint: write-tmp+fsync+rename with .prev rotation
# ----------------------------------------------------------------------
def _checkpoint_protocol() -> AuditProtocol:
    from repro.resilience.checkpoint import (FORMAT_VERSION,
                                             read_checkpoint_with_fallback,
                                             rotate_previous,
                                             write_checkpoint)

    name = "campaign.ckpt"

    def setup(root: str) -> dict:
        write_checkpoint(os.path.join(root, name),
                         {"version": FORMAT_VERSION, "round": 1,
                          "blob": "x" * 512})
        return {"name": name}

    def run(root: str, ctx: dict) -> None:
        path = os.path.join(root, name)
        rotate_previous(path)
        write_checkpoint(path, {"version": FORMAT_VERSION, "round": 2,
                                "blob": "y" * 512})

    def recover(root: str, ctx: dict):
        # Raises CheckpointError when both primary and .prev are
        # unusable — the runner records that as a violation.
        return read_checkpoint_with_fallback(os.path.join(root, name))

    def check_one_round(root: str, ctx: dict, result) -> Optional[str]:
        if not isinstance(result, dict) or result.get("round") not in (1, 2):
            return (f"recovered payload is neither the old nor the new "
                    f"checkpoint: {result!r}")
        return None

    return AuditProtocol(
        name="checkpoint",
        description="campaign checkpoint write + .prev rotation",
        setup=setup, run=run, recover=recover,
        invariants=[RecoveryInvariant(
            "exactly-one-checkpoint",
            "recovery always loads exactly the old or the new snapshot, "
            "never a torn one and never neither",
            check_one_round)])


# ----------------------------------------------------------------------
# sink: rotating JSONL trace shards + tolerant merge
# ----------------------------------------------------------------------
def _sink_protocol() -> AuditProtocol:
    from repro.observe.events import TraceEvent
    from repro.observe.sink import SHARD_NAME, JsonlTraceSink, merge_shards

    rotate_bytes = 256

    def events(lo: int, hi: int) -> list:
        return [TraceEvent(kind="exec", vtime=float(i), seq=i,
                           payload={"n": i}) for i in range(lo, hi)]

    def sink_for(root: str) -> JsonlTraceSink:
        return JsonlTraceSink(os.path.join(root, "trace", SHARD_NAME),
                              rotate_bytes=rotate_bytes)

    def setup(root: str) -> dict:
        sink_for(root).write_events(events(0, 4))
        return {"base": list(range(4)), "all": list(range(12))}

    def run(root: str, ctx: dict) -> None:
        sink = sink_for(root)
        sink.write_events(events(4, 8))   # grows past rotate_bytes...
        sink.write_events(events(8, 12))  # ...so this batch rotates first

    def recover(root: str, ctx: dict):
        merged, skipped = merge_shards(os.path.join(root, "trace"))
        return {"seqs": [e.seq for e in merged], "skipped": skipped}

    def check_durable_visible(root: str, ctx: dict,
                              result) -> Optional[str]:
        missing = [s for s in ctx["base"] if s not in result["seqs"]]
        if missing:
            return (f"events durable before the run are missing from the "
                    f"merge: seqs {missing}")
        return None

    def check_consistent(root: str, ctx: dict, result) -> Optional[str]:
        seqs = result["seqs"]
        if len(seqs) != len(set(seqs)):
            return "merged timeline contains duplicate seq events"
        stray = [s for s in seqs if s not in ctx["all"]]
        if stray:
            return f"merged timeline invented events: seqs {stray}"
        if seqs != sorted(seqs):
            return f"merged timeline out of order: {seqs}"
        return None

    return AuditProtocol(
        name="sink",
        description="rotating JSONL trace shards + tolerant shard merge",
        setup=setup, run=run, recover=recover,
        invariants=[
            RecoveryInvariant(
                "durable-events-visible",
                "an fsynced batch survives any later crash, including "
                "one mid-rotation",
                check_durable_visible),
            RecoveryInvariant(
                "merge-consistent",
                "the merged timeline is deduplicated, ordered, and "
                "contains only events that were written",
                check_consistent)])


# ----------------------------------------------------------------------
_BUILDERS: Dict[str, Callable[[], AuditProtocol]] = {
    "checkpoint": _checkpoint_protocol,
    "sink": _sink_protocol,
}


def build_protocol(name: str) -> AuditProtocol:
    """The :class:`AuditProtocol` for one component name."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown audit component {name!r}; known: "
                         f"{', '.join(COMPONENTS)}") from None
