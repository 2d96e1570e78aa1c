"""Workload interface shared by all eight PM programs.

A workload owns a pool layout and knows how to:

* create a fresh PM image (the empty seed image),
* open an image — running both PMDK transaction recovery and its own
  application-level recovery/reconstruction, the code region where the
  paper's Bugs 1-6 live,
* execute mapcli commands against the open pool,
* check the structural consistency of a pool (the test oracle the
  XFDetector-like checker applies after recovery).

Workloads accept a set of *real-bug* flags (see
:mod:`repro.workloads.realbugs`); the default is the fixed program, and
each flag re-introduces one of the 12 bugs PMFuzz found.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import CommandError, OutOfPMemError, TransactionAborted
from repro.pmem.image import PMImage
from repro.pmdk.pool import PmemObjPool

if TYPE_CHECKING:
    from repro.pmem.crash import CrashSnapshot, SnapshotPlan
    from repro.workloads.synthetic import SyntheticBug


@dataclass(frozen=True)
class Command:
    """One parsed mapcli command."""

    op: str
    key: Optional[int] = None
    value: Optional[int] = None

    def __str__(self) -> str:
        parts = [self.op]
        if self.key is not None:
            parts.append(str(self.key))
        if self.value is not None:
            parts.append(str(self.value))
        return " ".join(parts)


class RunOutcome(enum.Enum):
    """How an execution of (image, commands) ended."""

    OK = "ok"  #: ran to completion, clean shutdown
    CRASHED = "crashed"  #: simulated failure at an injected point
    SEGFAULT = "segfault"  #: NULL/out-of-bounds persistent dereference
    INVALID_IMAGE = "invalid_image"  #: image failed validation at open
    ERROR = "error"  #: other program error (aborted transaction, OOM...)
    HARNESS_FAULT = "harness_fault"  #: the harness itself died (env fault)


@dataclass
class RunResult:
    """Outcome of one workload execution."""

    outcome: RunOutcome
    final_image: Optional[PMImage] = None  #: normal image (clean run only)
    crash_image: Optional[PMImage] = None  #: strict snapshot at the failure
    #: Weaker crash states (cache-eviction semantics): images where some
    #: pending lines additionally persisted.  Only populated for crashed
    #: runs when ``weak_states`` was requested.
    weak_crash_images: List[PMImage] = field(default_factory=list)
    fence_count: int = 0  #: ordering points executed (crash-gen domain)
    store_count: int = 0  #: stores executed (probabilistic crash points)
    commands_run: int = 0
    outputs: List[str] = field(default_factory=list)
    error: str = ""
    #: Materialized strict crash images harvested by a snapshot plan
    #: (single-pass crash generation); empty when no plan was armed.
    snapshots: List["CrashSnapshot"] = field(default_factory=list)


class Workload(abc.ABC):
    """Base class for the eight evaluated PM programs."""

    #: Short name used by the registry and the benchmarks.
    name: str = ""
    #: Pool layout string (must match at open).
    layout: str = ""
    #: Pool payload size in bytes.
    pool_size: int = 256 * 1024

    #: Class-level cache of the volatile op set, resolved once per
    #: process in (uninstrumented) construction — the command loop must
    #: never pay the per-exec import, and must never *trace* it either
    #: (a first-exec-only import line would make coverage depend on how
    #: many executions the process already ran).
    _VOLATILE_OPS: Optional[FrozenSet[str]] = None

    def __init__(self, bugs: FrozenSet[str] = frozenset()) -> None:
        self.bugs = frozenset(bugs)
        if Workload._VOLATILE_OPS is None:
            from repro.workloads.volatile_ops import VOLATILE_OPS

            Workload._VOLATILE_OPS = VOLATILE_OPS
        #: DRAM-only command handling (help/stats/encodings) — the
        #: volatile code bulk every real PM program carries (Req. 3).
        #: Lazily built by the harness on first use, or adopted from the
        #: executor's pooled processor (one per executor, reset per
        #: exec) so the hot path skips the construction.
        self._volatile = None

    def adopt_volatile(self, processor) -> None:
        """Reuse a pooled volatile processor for the next execution."""
        processor.reset()
        self._volatile = processor

    # ------------------------------------------------------------------
    # Hooks implemented by each workload
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def create_structure(self, pool: PmemObjPool) -> None:
        """Initialize the persistent data structure on a fresh pool."""

    @abc.abstractmethod
    def is_created(self, pool: PmemObjPool) -> bool:
        """Return True if the structure was fully initialized."""

    @abc.abstractmethod
    def exec_command(self, pool: PmemObjPool, cmd: Command) -> Optional[str]:
        """Apply one command; may return an output string."""

    @abc.abstractmethod
    def check_consistency(self, pool: PmemObjPool) -> List[str]:
        """Return a list of invariant violations (empty = consistent)."""

    def recover(self, pool: PmemObjPool) -> None:
        """Application-level recovery after pool open (default: none).

        Transaction-based workloads recover automatically inside
        ``pmemobj_open``; workloads built on low-level primitives (the
        Hashmap-Atomic family) override this — and paper Bug 6 is a
        driver that forgets to call it.
        """

    def synthetic_bugs(self) -> Sequence["SyntheticBug"]:
        """The Table-3 synthetic bug sites for this workload."""
        return ()

    # ------------------------------------------------------------------
    # Driver (the mapcli main() analogue)
    # ------------------------------------------------------------------
    def create_image(self) -> PMImage:
        """Build the empty seed image: a fresh pool with no structure.

        The structure itself is created lazily by :meth:`open` on first
        use, matching mapcli's flow (and making the creation transaction
        part of the fuzzed execution, where Bugs 1-5 hide).
        """
        pool = PmemObjPool.create(self.layout, self.pool_size)
        return pool.close()

    def open(self, image: PMImage) -> PmemObjPool:
        """Open an image the way the mapcli driver does.

        Steps: ``pmemobj_open`` (validates + runs transaction recovery),
        application-level recovery, then structure creation when needed.

        The ``init_not_retried`` bug variant (paper Bugs 1-5) only
        creates the structure on a *brand new* pool: if a previous run
        crashed during creation and the transaction rolled back, the
        buggy driver assumes a fully initialized structure and later
        dereferences a NULL pointer.
        """
        pool = PmemObjPool.open(image, self.layout)
        fresh = pool.root_oid == 0
        if "bug6_no_recovery_call" not in self.bugs:
            self.recover(pool)
        if fresh:
            self.create_structure(pool)
        elif not self.is_created(pool):
            if "init_not_retried" not in self.bugs:
                self.create_structure(pool)
            # Buggy driver: assume creation completed; Bugs 1-5 fire on
            # the first command that dereferences the missing structure.
        return pool

    def open_for_inspection(self, image: PMImage) -> PmemObjPool:
        """Open an image *without* the driver's repair behaviour.

        The detection oracles use this: they must judge the persistent
        state exactly as it is.  Opening through :meth:`open` would let
        the driver re-create a missing structure or re-run application
        recovery, silently healing the very corruption the oracle is
        looking for.  (PMDK undo-log recovery still runs — it is part of
        ``pmemobj_open`` itself.)
        """
        return PmemObjPool.open(image, self.layout)

    def run(
        self,
        image: PMImage,
        commands: Sequence[Command],
        crash_at_fence: Optional[int] = None,
        crash_at_store: Optional[int] = None,
        weak_states: bool = False,
        max_weak_states: int = 8,
        snapshot_plan: Optional["SnapshotPlan"] = None,
        warm=None,
    ) -> RunResult:
        """Execute ``commands`` on ``image``; optionally crash mid-way.

        This is the complete program lifecycle of Figure 4: load the PM
        image, (maybe) recover, apply input commands, and either shut
        down cleanly (producing a *normal image*) or fail — at the given
        ordering point (``crash_at_fence``) or at an arbitrary store
        (``crash_at_store``, the paper's probabilistic extra failure
        points).  With ``weak_states`` the result also carries crash
        images under cache-eviction semantics: states where a subset of
        the pending lines persisted even though no fence ordered them.

        With a ``snapshot_plan`` the persistence domain additionally
        captures the strict crash image at every planned fence / store
        index during this single execution; the materialized images come
        back in ``RunResult.snapshots`` (single-pass crash generation).
        The orchestration (open, arm, classify the outcome) lives in
        :func:`repro.fuzz.harness.run_workload` — deliberately outside
        the instrumented workloads package, so that fuzzer-configuration
        branches (warm-open hit vs cold open) never enter the coverage
        map.  Only the target-program code here does:
        :meth:`run_prefix` and :meth:`run_commands`.
        """
        from repro.fuzz.harness import run_workload

        return run_workload(self, image, commands,
                            crash_at_fence=crash_at_fence,
                            crash_at_store=crash_at_store,
                            weak_states=weak_states,
                            max_weak_states=max_weak_states,
                            snapshot_plan=snapshot_plan,
                            warm=warm)

    def run_prefix(self, pool: PmemObjPool) -> None:
        """Recovery/creation replay: the execution prefix of Figure 4.

        Everything between pool open and the first fuzzed command — the
        code region the warm-open cache memoizes.  Failure points are
        armed before this runs, so crashes can land inside it.
        """
        fresh = pool.root_oid == 0
        if "bug6_no_recovery_call" not in self.bugs:
            self.recover(pool)
        if fresh:
            self.create_structure(pool)
        elif not self.is_created(pool):
            if "init_not_retried" not in self.bugs:
                self.create_structure(pool)

    def run_commands(self, pool: PmemObjPool, commands: Sequence[Command],
                     result: RunResult) -> None:
        """Apply the fuzzed commands and close the pool (clean run)."""
        ops = Workload._VOLATILE_OPS
        volatile = self._volatile
        for cmd in commands:
            try:
                if cmd.op in ops:
                    output = volatile.handle(cmd)
                else:
                    output = self.exec_command(pool, cmd)
            except (CommandError, TransactionAborted, OutOfPMemError):
                continue  # mapcli prints an error and keeps reading
            if output is not None:
                result.outputs.append(output)
            result.commands_run += 1
        result.final_image = pool.close()

    @staticmethod
    def _weak_images(pool: PmemObjPool, limit: int) -> List[PMImage]:
        """Crash states under eviction semantics (see repro.pmem.crash)."""
        from itertools import islice

        from repro.pmem.crash import eviction_states

        domain = pool.domain
        states = eviction_states(domain.persisted_view(),
                                 domain.pending_overlays())
        return [PMImage(layout=pool.image.layout, payload=bytearray(payload),
                        uuid=pool.image.uuid)
                for payload in islice(states, limit)]
