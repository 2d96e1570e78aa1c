"""Durability auditor: crash-state enumeration for every durable store.

The repo's durable protocols — campaign checkpoints, fleet corpus sync,
the corpus database, the scrubber's quarantine, the rotating trace
sinks — all commit state through the handful of filesystem primitives
named by :mod:`repro._vfs`.  This package turns that seam into an
auditor:

1. :class:`~repro.audit.trace.TracingVFS` records the exact ordered
   mutation stream one run of each protocol performs;
2. :class:`~repro.audit.states.CrashStateEnumerator` materializes every
   legal post-crash view of that stream — each prefix cut, a torn tail
   for the final write, and drops of operations POSIX permits to
   reorder past an un-fsynced boundary;
3. for every state, the component's *real* recovery entry point runs
   and a set of typed :class:`~repro.audit.invariants.RecoveryInvariant`
   checks decide whether recovery restored the protocol's contract
   (exactly-once visibility, no half-published entries, idempotence).

``python -m repro audit --component all`` drives the whole thing; a
non-empty violation list exits 1 and leaves a replayable crash-state
bundle under the output directory.
"""

from repro.audit.invariants import RecoveryInvariant, Violation
from repro.audit.runner import AuditReport, DurabilityAuditor
from repro.audit.states import CrashState, CrashStateEnumerator
from repro.audit.trace import FsOp, TracingVFS

__all__ = [
    "AuditReport",
    "CrashState",
    "CrashStateEnumerator",
    "DurabilityAuditor",
    "FsOp",
    "RecoveryInvariant",
    "TracingVFS",
    "Violation",
]
