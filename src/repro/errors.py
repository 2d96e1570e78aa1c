"""Exception hierarchy shared across the PMFuzz reproduction.

The simulated PM stack signals program-visible failures (the analogue of a
SIGSEGV or an ``abort()`` in the original C workloads) through exceptions so
that the fuzzing executor can classify execution outcomes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class PMemError(ReproError):
    """Error in the persistent-memory hardware simulation layer."""


class InvalidImageError(PMemError):
    """A PM image failed header validation (bad magic, checksum, or layout).

    This is the analogue of ``pmemobj_open`` failing on a corrupt pool file:
    the program aborts before exploring any useful path (Figure 5a of the
    paper).
    """


class OutOfPMemError(PMemError):
    """The persistent heap has no free block large enough for a request."""


class SegmentationFault(ReproError):
    """Dereference of a NULL or out-of-bounds persistent pointer.

    The real-world bugs 1-5 in the paper manifest as segmentation faults
    when a recovered program dereferences a NULL root object; this exception
    is their simulated equivalent.
    """


class TransactionError(ReproError):
    """Misuse of the transactional API (e.g. TX_ADD outside a transaction)."""


class TransactionAborted(ReproError):
    """A transaction body raised; the undo log has been rolled back."""


class SimulatedCrash(ReproError):
    """Raised internally when execution reaches an injected failure point.

    The executor catches this to capture the crash image — the persistent
    state as it existed at the failure point (Section 3.2).  Failures are
    placed either *at* an ordering point (``kind="fence"``, the paper's
    primary strategy) or probabilistically at an arbitrary store
    (``kind="store"``, the paper's additional failure points — useful
    because between fences the set of possible persistent states is
    larger than the strict snapshot).
    """

    def __init__(self, point_index: int, kind: str = "fence",
                 message: str = "") -> None:
        super().__init__(
            message or f"simulated crash at {kind} #{point_index}")
        self.fence_index = point_index if kind == "fence" else -1
        self.point_index = point_index
        self.kind = kind


class CommandError(ReproError):
    """A workload command could not be parsed or applied."""


class FuzzerError(ReproError):
    """Configuration or invariant violation inside the fuzzing engine."""


class HarnessFaultError(ReproError):
    """The fuzzing *harness* failed — not the program under test.

    The real fuzzer's analogue is the fork server dying, the target
    binary being killed by the OOM killer, or the test-case drive
    returning ``EIO``: events AFL++ absorbs and keeps fuzzing through.
    :class:`repro.resilience.supervisor.SupervisedExecutor` catches this
    hierarchy, retries transient faults with backoff, and degrades the
    campaign gracefully instead of dying.

    Args:
        message: human-readable description.
        site: the named fault site that failed (see
            :data:`repro.resilience.faults.FAULT_SITES`).
        transient: whether an immediate retry can plausibly succeed.
    """

    def __init__(self, message: str = "", site: str = "",
                 transient: bool = True) -> None:
        super().__init__(message or f"harness fault at {site or 'unknown'}")
        self.site = site
        self.transient = transient
        #: Virtual-time cost accrued while handling the fault (set by the
        #: supervisor before re-raising a permanent failure).
        self.vcost = 0.0


class StorageFaultError(HarnessFaultError):
    """Storage I/O failed: read/write errors, truncated or corrupted
    image bytes, or a transient decompression failure (the SSD tier of
    Section 4.7 under pressure)."""


class CorpusCorruptionError(StorageFaultError):
    """A stored corpus entry is *genuinely* damaged — not a torn read.

    Raised when a stored image fails decompression or validation
    against its own stored bytes (a bit-flip or truncation that a retry
    cannot fix), as opposed to the transient read-path corruption
    :class:`StorageFaultError` models.  The entry is quarantined by the
    raiser, so the campaign loses one test case, not the resume: the
    supervisor treats this as a non-transient harness fault, charges the
    recovery cost, and moves on.

    Args:
        message: human-readable description.
        entry: identifier of the damaged entry (the image id).
    """

    def __init__(self, message: str = "", entry: str = "") -> None:
        super().__init__(message or f"corpus entry {entry!r} is corrupt",
                         site="storage-corrupt", transient=False)
        self.entry = entry


class WorkerCrashError(HarnessFaultError):
    """An isolation worker died abnormally (signal, OOM kill, hard exit).

    The fork-server analogue of AFL++ losing a forked child to SIGSEGV
    or the OOM killer: the worker process backing one execution vanished
    without reporting a result.  Treated as transient — the pool spawns
    a fresh worker and the supervisor retries; an input that *keeps*
    killing workers is quarantined through the normal strike path.

    Args:
        message: human-readable description.
        exit_detail: decoded ``waitpid`` status ("killed by signal 9",
            "exited with status 1", ...).
    """

    def __init__(self, message: str = "", exit_detail: str = "",
                 transient: bool = True) -> None:
        super().__init__(message or "isolation worker died abnormally",
                         site="exec-fault", transient=transient)
        self.exit_detail = exit_detail


class ExecTimeoutError(HarnessFaultError):
    """An execution exceeded its virtual-time budget (a hung target).

    Hangs are treated as non-transient: re-running a hanging test case
    would burn another full timeout budget, so the supervisor charges
    one budget and moves on (AFL++'s ``+hang`` behaviour).
    """

    def __init__(self, message: str = "", site: str = "exec-hang") -> None:
        super().__init__(message or "execution exceeded its virtual-time "
                                    "budget", site=site, transient=False)


class CheckpointError(ReproError):
    """A campaign checkpoint could not be written, read, or verified."""


import struct as _struct  # noqa: E402  (kept local to the tuple below)

#: Exceptions that model memory corruption in a C program: a corrupted
#: persistent value (from a crash image or an injected bug) leads to wild
#: indexing, unbounded recursion, or impossible encodings — the analogues
#: of a segmentation fault.  Execution harnesses map these to the
#: SEGFAULT outcome instead of crashing the fuzzer.
CORRUPTION_ERRORS = (
    SegmentationFault,
    IndexError,
    RecursionError,
    OverflowError,
    ZeroDivisionError,  # modulo/divide by a corrupted size field (SIGFPE)
    _struct.error,
)
