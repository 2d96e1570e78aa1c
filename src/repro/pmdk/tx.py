"""Undo-log transactions: TX_BEGIN / TX_ADD / TX_ALLOC / TX_END.

Implements the libpmemobj transaction protocol over the simulated pool:

1. ``begin`` sets the persistent log stage to WORK.
2. ``add`` (TX_ADD / TX_ADD_FIELD) snapshots the old contents of a range
   into the log area, persists the snapshot, then persists the entry's
   valid flag — the data-before-valid ordering that makes undo logging
   correct.  A range already covered by the transaction's range tree is
   *not* logged again; the library emits a ``TX_ADD_REDUNDANT`` trace
   annotation instead, which the detectors report as a performance bug
   (paper Bugs 8-12 and Section 6).
3. Stores to snapshotted or freshly allocated ranges proceed in place.
4. ``commit`` flushes every covered range, fences, marks the stage
   COMMITTED, performs deferred frees, and clears the log.
5. ``abort`` (or crash recovery at the next pool open) applies snapshots
   in reverse and rolls back allocations.

A store inside a transaction to a range that is neither snapshotted nor
freshly allocated is accepted by the library — just as PMDK accepts it —
but a failure before commit makes it unrecoverable; the Pmemcheck-like
detector flags exactly those stores.
"""

from __future__ import annotations

import enum
from typing import Any, List, Optional, Tuple, Type

from repro.errors import TransactionAborted, TransactionError
from repro.instrument.branchcov import untraced
from repro.instrument.context import current_context, pm_call_site
from repro.pmem.persistence import TraceEventKind
from repro.pmdk.heap import PersistentHeap
from repro.pmdk.rangetree import RangeTree

#: Log geometry (within the pool's log region).
MAX_LOG_ENTRIES = 128
LOG_ENTRY_SIZE = 32
LOG_DATA_SIZE = 16 * 1024


class TxStage(enum.IntEnum):
    """Persistent transaction stage stored in the log header."""

    NONE = 0
    WORK = 1
    COMMITTED = 2


class EntryKind(enum.IntEnum):
    """Undo-log entry kinds."""

    SNAPSHOT = 1
    ALLOC = 2
    FREE = 3


class TransactionLog:
    """The persistent undo log embedded in a pool.

    Layout (offsets relative to ``log_base``)::

        +0   stage      u8
        +8   n_entries  u64
        +16  data_used  u64   (bytes consumed in the snapshot data area)
        +64  entries    MAX_LOG_ENTRIES * 32B: kind u8, valid u8, pad,
                        target u64, size u64, data_off u64
        +64+entries  snapshot data area (LOG_DATA_SIZE bytes)
    """

    HEADER_SIZE = 64

    def __init__(self, domain, log_base: int) -> None:
        self.domain = domain
        self.base = log_base
        self.entries_base = log_base + self.HEADER_SIZE
        self.data_base = self.entries_base + MAX_LOG_ENTRIES * LOG_ENTRY_SIZE
        self.end = self.data_base + LOG_DATA_SIZE

    @staticmethod
    def region_size() -> int:
        """Total bytes the log occupies inside a pool."""
        return TransactionLog.HEADER_SIZE + MAX_LOG_ENTRIES * LOG_ENTRY_SIZE + LOG_DATA_SIZE

    # -- header fields -------------------------------------------------
    @property
    def stage(self) -> TxStage:
        return TxStage(self.domain.load(self.base, 1)[0])

    def set_stage(self, stage: TxStage, site: str) -> None:
        self.domain.store(self.base, bytes([int(stage)]), site=site)
        self.domain.persist(self.base, 1, site=site)

    @property
    def n_entries(self) -> int:
        return int.from_bytes(self.domain.load(self.base + 8, 8), "little")

    def _set_n_entries(self, n: int, site: str) -> None:
        self.domain.store(self.base + 8, n.to_bytes(8, "little"), site=site)

    @property
    def data_used(self) -> int:
        return int.from_bytes(self.domain.load(self.base + 16, 8), "little")

    def _set_data_used(self, n: int, site: str) -> None:
        self.domain.store(self.base + 16, n.to_bytes(8, "little"), site=site)

    # -- entries ---------------------------------------------------------
    def _entry_addr(self, index: int) -> int:
        return self.entries_base + index * LOG_ENTRY_SIZE

    def read_entry(self, index: int) -> Tuple[EntryKind, bool, int, int, int]:
        """Return (kind, valid, target, size, data_off) of entry ``index``."""
        raw = self.domain.load(self._entry_addr(index), LOG_ENTRY_SIZE)
        kind = EntryKind(raw[0]) if raw[0] else EntryKind.SNAPSHOT
        valid = raw[1] == 1
        target = int.from_bytes(raw[8:16], "little")
        size = int.from_bytes(raw[16:24], "little")
        data_off = int.from_bytes(raw[24:32], "little")
        return kind, valid, target, size, data_off

    def append_entry(
        self, kind: EntryKind, target: int, size: int, data: bytes, site: str
    ) -> None:
        """Write one log entry with correct persist ordering."""
        index = self.n_entries
        if index >= MAX_LOG_ENTRIES:
            raise TransactionError("undo log full: transaction too large")
        data_off = 0
        if data:
            used = self.data_used
            if used + len(data) > LOG_DATA_SIZE:
                raise TransactionError("undo log data area full")
            data_off = self.data_base + used
            self.domain.store(data_off, data, site=site)
            self._set_data_used(used + len(data), site)
        addr = self._entry_addr(index)
        self.domain.store(addr, bytes([int(kind), 0]) + b"\0" * 6, site=site)
        self.domain.store(addr + 8, target.to_bytes(8, "little"), site=site)
        self.domain.store(addr + 16, size.to_bytes(8, "little"), site=site)
        self.domain.store(addr + 24, data_off.to_bytes(8, "little"), site=site)
        self._set_n_entries(index + 1, site)
        # Persist snapshot data + entry body + header count first ...
        if data:
            self.domain.flush(data_off, len(data), site=site)
        self.domain.flush(addr, LOG_ENTRY_SIZE, site=site)
        self.domain.flush(self.base + 8, 16, site=site)
        self.domain.drain(site=site)
        # ... then set and persist the valid flag (commit point of the entry).
        self.domain.store(addr + 1, b"\x01", site=site)
        self.domain.persist(addr + 1, 1, site=site)

    def clear(self, site: str) -> None:
        """Reset the log after commit/rollback (entries become invalid)."""
        for i in range(self.n_entries):
            addr = self._entry_addr(i)
            self.domain.store(addr + 1, b"\x00", site=site)
            self.domain.flush(addr + 1, 1, site=site)
        self._set_n_entries(0, site)
        self._set_data_used(0, site)
        self.domain.flush(self.base + 8, 16, site=site)
        self.domain.drain(site=site)


class Transaction:
    """A (possibly nested) libpmemobj-style transaction.

    Obtain via ``pool.transaction()`` and use as a context manager::

        with pool.transaction() as tx:
            tx.add(node.offset, Node._size_)      # TX_ADD
            node.n = node.n + 1
            child = tx.znew(Node)                  # TX_ZNEW

    Leaving the block normally commits; an exception rolls back and
    re-raises as :class:`~repro.errors.TransactionAborted` (matching
    ``TX_ONABORT`` semantics).
    """

    def __init__(self, pool: Any) -> None:
        self.pool = pool
        self.log: TransactionLog = pool.log
        self.heap: PersistentHeap = pool.heap
        self.ranges = RangeTree()
        self._deferred_free: List[int] = []
        self._depth = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @untraced
    def begin(self, site: Optional[str] = None) -> None:
        """TX_BEGIN: enter (or nest into) the transaction."""
        label = site if site is not None else pm_call_site(depth=2)
        self._record(label)
        if self._depth == 0:
            if self.log.stage is not TxStage.NONE:
                raise TransactionError(
                    f"TX_BEGIN with log in stage {self.log.stage.name}"
                )
            self.log.set_stage(TxStage.WORK, label)
            self.pool.domain.emit(TraceEventKind.TX_BEGIN, 0, 0, label)
            self.pool.active_tx = self
        self._depth += 1

    @untraced
    def commit(self, site: Optional[str] = None) -> None:
        """TX_END on the success path."""
        label = site if site is not None else pm_call_site(depth=2)
        self._record(label)
        if self._depth == 0:
            raise TransactionError("commit without begin")
        self._depth -= 1
        if self._depth > 0:
            return
        # Persist all covered (snapshotted + freshly allocated) ranges.
        for start, end in self.ranges:
            self.pool.domain.flush(start, end - start, site=label)
        self.pool.domain.drain(site=label)
        self.log.set_stage(TxStage.COMMITTED, label)
        for oid in self._deferred_free:
            self.heap.free(oid, site=label)
        self.log.clear(label)
        self.log.set_stage(TxStage.NONE, label)
        self.pool.domain.emit(TraceEventKind.TX_COMMIT, 0, 0, label)
        self._finish()

    @untraced
    def abort(self, site: Optional[str] = None) -> None:
        """Explicit TX_ABORT: roll back and reset."""
        label = site if site is not None else pm_call_site(depth=2)
        self._record(label)
        if self._depth == 0:
            raise TransactionError("abort without begin")
        rollback_log(self.pool, site=label)
        self.pool.domain.emit(TraceEventKind.TX_ABORT, 0, 0, label)
        self._depth = 0
        self._finish()

    def _finish(self) -> None:
        self.ranges.clear()
        self._deferred_free.clear()
        self.pool.active_tx = None

    @untraced
    def __enter__(self) -> "Transaction":
        self.begin(site=pm_call_site(depth=2))
        return self

    @untraced
    def __exit__(self, exc_type, exc, tb) -> bool:
        from repro.errors import SegmentationFault, SimulatedCrash

        if exc_type is None:
            self.commit(site="tx:commit")
            return False
        if issubclass(exc_type, (SimulatedCrash, SegmentationFault, KeyboardInterrupt)):
            # The "process" died: no abort handler runs; the undo log stays
            # in stage WORK and recovery at the next pool open rolls back.
            self._depth = 0
            self.pool.active_tx = None
            return False
        if self._depth > 1:
            self._depth -= 1
            return False  # propagate to the outermost level
        self.abort(site="tx:abort")
        if isinstance(exc, TransactionAborted):
            return False
        raise TransactionAborted(str(exc)) from exc

    # ------------------------------------------------------------------
    # Logging / allocation primitives
    # ------------------------------------------------------------------
    @untraced
    def add(self, offset: int, size: int, site: Optional[str] = None) -> None:
        """TX_ADD: snapshot ``[offset, offset+size)`` unless already covered.

        A redundant call (range already snapshotted or freshly allocated)
        performs only the range-tree lookup and emits a
        ``TX_ADD_REDUNDANT`` annotation — the performance-bug signal.
        """
        label = site if site is not None else pm_call_site(depth=2)
        self._record(label)
        self._require_active()
        inj = getattr(current_context(), "injector", None) if current_context() else None
        if inj is not None and inj.skip_tx_add(label):
            return
        if self.ranges.covers(offset, size):
            self.pool.domain.emit(TraceEventKind.TX_ADD_REDUNDANT, offset, size, label)
            return
        old = self.pool.domain.load(offset, size, site=label)
        self.log.append_entry(EntryKind.SNAPSHOT, offset, size, old, label)
        self.ranges.add(offset, size)
        self.pool.domain.emit(TraceEventKind.TX_ADD, offset, size, label)

    @untraced
    def add_struct(self, view: Any, site: Optional[str] = None) -> None:
        """TX_ADD of a whole typed struct view."""
        self.add(view.offset, type(view)._size_,
                 site=site if site is not None else pm_call_site(depth=2))

    @untraced
    def add_field(self, view: Any, field: str, site: Optional[str] = None) -> None:
        """TX_ADD_FIELD: snapshot a single struct field."""
        self.add(view.field_addr(field), type(view).field_size(field),
                 site=site if site is not None else pm_call_site(depth=2))

    @untraced
    def set_field(self, view: Any, field: str, value: Any,
                  site: Optional[str] = None) -> None:
        """TX_SET: TX_ADD_FIELD followed by the store."""
        label = site if site is not None else pm_call_site(depth=2)
        self.add(view.field_addr(field), type(view).field_size(field), site=label)
        setattr(view, field, value)

    @untraced
    def alloc(self, size: int, site: Optional[str] = None) -> int:
        """TX_ALLOC: allocate; rolled back (freed) on abort."""
        label = site if site is not None else pm_call_site(depth=2)
        self._record(label)
        self._require_active()
        oid = self.heap.alloc(size, site=label)
        self.log.append_entry(EntryKind.ALLOC, oid, size, b"", label)
        # Fresh allocations need no snapshot: cover them in the range tree.
        self.ranges.add(oid, size)
        self.pool.domain.emit(TraceEventKind.ALLOC, oid, size, label)
        return oid

    @untraced
    def zalloc(self, size: int, site: Optional[str] = None) -> int:
        """TX_ZALLOC: allocate zeroed memory."""
        label = site if site is not None else pm_call_site(depth=2)
        oid = self.alloc(size, site=label)
        self.pool.domain.store(oid, b"\0" * size, site=label)
        return oid

    @untraced
    def new(self, struct_type: Type, site: Optional[str] = None) -> Any:
        """TX_NEW: allocate a struct-sized block, return the typed view."""
        label = site if site is not None else pm_call_site(depth=2)
        oid = self.alloc(struct_type._size_, site=label)
        return self.pool.typed(oid, struct_type, site=label)

    @untraced
    def znew(self, struct_type: Type, site: Optional[str] = None) -> Any:
        """TX_ZNEW: allocate a zeroed struct, return the typed view."""
        label = site if site is not None else pm_call_site(depth=2)
        oid = self.zalloc(struct_type._size_, site=label)
        return self.pool.typed(oid, struct_type, site=label)

    @untraced
    def free(self, oid: int, site: Optional[str] = None) -> None:
        """TX_FREE: deferred until commit (undone simply by aborting)."""
        label = site if site is not None else pm_call_site(depth=2)
        self._record(label)
        self._require_active()
        self.log.append_entry(EntryKind.FREE, oid, 0, b"", label)
        self._deferred_free.append(oid)
        self.pool.domain.emit(TraceEventKind.FREE, oid, 0, label)

    # ------------------------------------------------------------------
    def _require_active(self) -> None:
        if self._depth == 0:
            raise TransactionError("operation outside TX_BEGIN/TX_END")

    @staticmethod
    def _record(label: str) -> None:
        ctx = current_context()
        if ctx is not None:
            ctx.record_pm_op(label)


def rollback_log(pool: Any, site: str = "tx:rollback") -> None:
    """Apply valid undo entries in reverse order; used by abort & recovery.

    The rollback operations are PM operations in their own right (the
    real libpmemobj recovery code is instrumented like any other library
    code), so they are recorded with per-entry-kind site labels — which
    is what makes recovery procedures contribute *new PM paths* when a
    crash image is used as a fuzzing input.
    """
    ctx = current_context()
    log: TransactionLog = pool.log
    for index in range(log.n_entries - 1, -1, -1):
        kind, valid, target, size, data_off = log.read_entry(index)
        if not valid:
            continue
        if kind is EntryKind.SNAPSHOT:
            if ctx is not None:
                ctx.record_pm_op("tx:rollback:snapshot")
            old = pool.domain.load(data_off, size, site=site)
            pool.domain.store(target, old, site=site)
            pool.domain.persist(target, size, site=site)
        elif kind is EntryKind.ALLOC:
            if ctx is not None:
                ctx.record_pm_op("tx:rollback:alloc")
            # Idempotent: a crash mid-rollback leaves processed entries
            # valid; the re-run must not double-free (PMDK's recovery
            # operations are restartable for the same reason).
            if pool.heap.is_allocated(target):
                pool.heap.free(target, site=site)
        # FREE entries were deferred; nothing to undo.
    log.clear(site)
    log.set_stage(TxStage.NONE, site)


def recover_pool(pool: Any, site: str = "tx:recovery") -> bool:
    """Crash recovery at pool open; returns True if work was done.

    * stage WORK → the crash hit mid-transaction: roll back.
    * stage COMMITTED → the crash hit after the commit point: finish by
      clearing the log (deferred frees are re-issued conservatively by
      dropping them — the blocks leak, which is PMDK's behaviour too).
    """
    log: TransactionLog = pool.log
    stage = log.stage
    if stage is TxStage.NONE:
        return False
    ctx = current_context()
    pool.domain.emit(TraceEventKind.RECOVERY, 0, 0, site)
    if stage is TxStage.WORK:
        if ctx is not None:
            ctx.record_pm_op("tx:recovery:rollback")
        rollback_log(pool, site=site)
    else:  # COMMITTED
        if ctx is not None:
            ctx.record_pm_op("tx:recovery:finish_commit")
        log.clear(site)
        log.set_stage(TxStage.NONE, site)
    return True
