"""Persistent object pools: the ``libpmemobj`` pool analogue.

A pool wraps one PM image with:

* a metadata block (magic, root OID, heap cursor, free-list head),
* the embedded undo log (:class:`~repro.pmdk.tx.TransactionLog`),
* the persistent heap (:class:`~repro.pmdk.heap.PersistentHeap`).

A randomly mutated image file fails the checksum of
:meth:`~repro.pmem.image.PMImage.from_bytes` where its bytes enter,
reproducing Figure 5a.  ``PmemObjPool.open`` checks the layout and the
pool magic and then runs transaction recovery, reproducing the automatic
recovery path that the paper's real-world Bug 6 shows is *not*
sufficient for programs built on low-level primitives.
"""

from __future__ import annotations

from typing import Any, Optional, Type

from repro.errors import InvalidImageError, SegmentationFault
from repro.instrument.branchcov import untraced
from repro.instrument.context import current_context, pm_call_site
from repro.pmem.image import PMImage
from repro.pmem.persistence import PersistenceDomain, TraceEventKind
from repro.pmdk import libpmem
from repro.pmdk.heap import ALLOC_HEADER_SIZE, PersistentHeap
from repro.pmdk.tx import Transaction, TransactionLog, TxStage, recover_pool

#: NULL persistent pointer.
OID_NULL = 0

#: Pool metadata layout (offsets within the payload).
_META_OFF = 0
_META_MAGIC_OFF = 0
_META_ROOT_OFF = 8
_META_CURSOR_OFF = 16
_META_FREE_OFF = 24
_META_SIZE = 64
_LOG_OFF = _META_SIZE

_POOL_MAGIC = 0x504D4F424A5F5631  # "PMOBJ_V1"

#: Undo-log stage bytes an openable pool may carry.
_TX_STAGES = frozenset(int(stage) for stage in TxStage)

#: Default pool payload size — small enough for fast fuzzing iterations,
#: large enough for hundreds of workload objects.
DEFAULT_POOL_SIZE = 256 * 1024


class PmemObjPool:
    """An open persistent object pool bound to a PM image.

    Not constructed directly — use :meth:`create` or :meth:`open`.
    """

    def __init__(self, image: PMImage, domain: PersistenceDomain) -> None:
        self.image = image
        self.domain = domain
        self.log = TransactionLog(domain, _LOG_OFF)
        heap_base = _LOG_OFF + TransactionLog.region_size()
        self.heap = PersistentHeap(
            domain,
            heap_base,
            meta_cursor_addr=_META_CURSOR_OFF,
            meta_free_addr=_META_FREE_OFF,
        )
        self.active_tx: Optional[Transaction] = None
        self.closed = False
        ctx = current_context()
        # Only register the trace observer when the context actually
        # keeps events: with collect_trace=False (the fuzzing hot path)
        # ctx.observe drops every event anyway, and an observer-free
        # domain skips TraceEvent construction entirely.
        if ctx is not None and ctx.collect_trace:
            domain.add_observer(ctx.observe)

    # ------------------------------------------------------------------
    # Creation / opening
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, layout: str, size: int = DEFAULT_POOL_SIZE) -> "PmemObjPool":
        """``pmemobj_create``: build a fresh pool on an empty image."""
        image = PMImage.create(layout, size)
        domain = PersistenceDomain(size, bytes(image.payload))
        pool = cls(image, domain)
        site = "pool:create"
        domain.store(
            _META_MAGIC_OFF, _POOL_MAGIC.to_bytes(8, "little"), site=site
        )
        domain.store(_META_ROOT_OFF, OID_NULL.to_bytes(8, "little"), site=site)
        domain.persist(_META_OFF, _META_SIZE, site=site)
        pool.heap.initialize(site=site)
        pool.log.set_stage(0, site)
        domain.emit(TraceEventKind.POOL_OPEN, 0, 0, site)
        return pool

    @classmethod
    @untraced
    def open(
        cls,
        image: PMImage,
        layout: str,
        recover: bool = True,
    ) -> "PmemObjPool":
        """``pmemobj_open``: validate the image, mount it, run recovery.

        Args:
            image: the PM image to mount.  The persistence domain copies
                its payload, so execution never mutates the caller's
                image.
            layout: expected layout name.
            recover: run undo-log recovery (PMDK always does; the flag
                exists for tests that need to inspect pre-recovery state).

        Raises:
            InvalidImageError: layout mismatch, bad image header fields,
                no pool magic in the payload or an undo-log stage byte
                that names no stage — the program aborts before doing
                anything useful.  (Serialized images have their magic and
                checksum checked earlier, by
                :meth:`PMImage.from_bytes`.)
        """
        image.validate(expected_layout=layout)
        domain = PersistenceDomain(len(image.payload), image.payload)
        magic = int.from_bytes(domain.load(_META_MAGIC_OFF, 8), "little")
        if magic != _POOL_MAGIC:
            raise InvalidImageError(
                f"pool magic mismatch: 0x{magic:x} != 0x{_POOL_MAGIC:x}"
            )
        stage = domain.load(_LOG_OFF, 1)[0]
        if stage not in _TX_STAGES:
            raise InvalidImageError(f"undo log stage {stage} is not a stage")
        # The pool image's payload is only written at close(); an empty
        # placeholder avoids copying a payload that nothing reads.
        pool = cls(PMImage(layout=image.layout, payload=bytearray(),
                           uuid=image.uuid), domain)
        domain.emit(TraceEventKind.POOL_OPEN, 0, 0, "pool:open")
        if recover:
            recover_pool(pool)
        return pool

    @untraced
    def close(self) -> PMImage:
        """``pmemobj_close``: persist everything and return the image.

        A clean shutdown gives the cache time to write back every dirty
        line, so the resulting *normal image* reflects the full volatile
        state.  (Crash images, by contrast, are taken from the media view
        at the failure point.)
        """
        self.domain.emit(TraceEventKind.POOL_CLOSE, 0, 0, "pool:close")
        self.image.payload = self.domain.volatile_copy()
        self.closed = True
        return self.image

    @untraced
    def crash_image(self) -> PMImage:
        """Return the strict crash snapshot as an image (media view only)."""
        return PMImage(layout=self.image.layout,
                       payload=self.domain.persisted_copy(),
                       uuid=self.image.uuid)

    # ------------------------------------------------------------------
    # Raw traced access (used by the typed-struct layer)
    # ------------------------------------------------------------------
    def _read(self, offset: int, size: int, site: str = "") -> bytes:
        """Traced PM load with NULL/bounds checking.

        Struct-view reads route through here; the call site (the workload
        statement performing the D_RO access) is recorded as a PM
        operation, which is what makes the statement a *PM node* in the
        paper's PM-path definition (Section 3.3).
        """
        self._check(offset, size)
        ctx = current_context()
        if ctx is not None and site:
            ctx.record_pm_op(site)
        return self.domain.load(offset, size, site=site)

    def _write(self, offset: int, data: bytes, site: str = "") -> None:
        """Traced PM store with NULL/bounds checking (a PM node, see read)."""
        self._check(offset, len(data))
        ctx = current_context()
        if ctx is not None:
            if site:
                ctx.record_pm_op(site)
            inj = ctx.injector
            if inj is not None:
                data = inj.corrupt_store(site, offset, data)
        self.domain.store(offset, data, site=site)

    # The struct layer calls the undecorated ``_read``/``_write``; these
    # are the entry points for workload code.
    read = untraced(_read)
    write = untraced(_write)

    def _check(self, offset: int, size: int) -> None:
        if offset == OID_NULL:
            raise SegmentationFault("NULL persistent pointer dereference")
        if offset < 0 or offset + size > self.domain.size:
            raise SegmentationFault(
                f"access [{offset}, {offset + size}) outside pool of "
                f"size {self.domain.size}"
            )

    # ------------------------------------------------------------------
    # Object access (D_RO / D_RW analogues)
    # ------------------------------------------------------------------
    @untraced
    def typed(self, oid: int, struct_type: Type, site: Optional[str] = None) -> Any:
        """Return a typed struct view at ``oid`` (the D_RW analogue).

        NULL and out-of-bounds OIDs raise :class:`SegmentationFault`,
        which is how the paper's Bugs 1-5 (dereferencing a rolled-back
        root pointer after a failed initialization) manifest here.
        """
        if oid == OID_NULL:
            raise SegmentationFault(
                f"D_RW(NULL) for {struct_type.__name__}"
            )
        if oid < 0 or oid + struct_type._size_ > self.domain.size:
            raise SegmentationFault(
                f"OID 0x{oid:x} out of bounds for {struct_type.__name__}"
            )
        label = site if site is not None else ""
        return struct_type(self, oid, site=label)

    @property
    @untraced
    def root_oid(self) -> int:
        """Current root object OID (0 when unset)."""
        return int.from_bytes(self.domain.load(_META_ROOT_OFF, 8), "little")

    @untraced
    def set_root(self, oid: int, site: Optional[str] = None) -> None:
        """Atomically publish the root OID (persisted immediately).

        Inside a transaction the root slot must still be snapshotted by
        the caller (``tx.add``) for the update to be recoverable — the
        paper's Bugs 1-5 come from programs getting this wrong.
        """
        label = site if site is not None else pm_call_site(depth=2)
        ctx = current_context()
        if ctx is not None:
            ctx.record_pm_op(label)
        self.domain.store(_META_ROOT_OFF, oid.to_bytes(8, "little"), site=label)
        self.domain.persist(_META_ROOT_OFF, 8, site=label)

    @untraced
    def root(self, struct_type: Type, site: Optional[str] = None) -> Any:
        """``pmemobj_root``: get-or-create the root object, typed.

        On first call the root is allocated zeroed and published
        atomically (allocation, then persist, then root-slot update, then
        persist) — the crash-safe pattern PMDK implements internally.
        """
        label = site if site is not None else pm_call_site(depth=2)
        oid = self.root_oid
        if oid == OID_NULL:
            oid = self.heap.zalloc(struct_type._size_, site=label)
            self.set_root(oid, site=label)
        return self.typed(oid, struct_type, site=label)

    # ------------------------------------------------------------------
    # Transactions & atomic allocation
    # ------------------------------------------------------------------
    @untraced
    def transaction(self) -> Transaction:
        """Return the active transaction (nested TX_BEGIN) or a new one."""
        return self.active_tx if self.active_tx is not None else Transaction(self)

    @untraced
    def alloc(self, size: int, site: Optional[str] = None) -> int:
        """Atomic (non-transactional) allocation, ``POBJ_ALLOC`` style."""
        label = site if site is not None else pm_call_site(depth=2)
        ctx = current_context()
        if ctx is not None:
            ctx.record_pm_op(label)
        oid = self.heap.alloc(size, site=label)
        self.domain.emit(TraceEventKind.ALLOC, oid, size, label)
        return oid

    @untraced
    def zalloc(self, size: int, site: Optional[str] = None) -> int:
        """Atomic zeroed allocation, ``POBJ_ZALLOC`` style."""
        label = site if site is not None else pm_call_site(depth=2)
        ctx = current_context()
        if ctx is not None:
            ctx.record_pm_op(label)
        oid = self.heap.zalloc(size, site=label)
        self.domain.emit(TraceEventKind.ALLOC, oid, size, label)
        return oid

    @untraced
    def free(self, oid: int, site: Optional[str] = None) -> None:
        """Atomic free, ``POBJ_FREE`` style."""
        label = site if site is not None else pm_call_site(depth=2)
        ctx = current_context()
        if ctx is not None:
            ctx.record_pm_op(label)
        self.heap.free(oid, site=label)
        self.domain.emit(TraceEventKind.FREE, oid, 0, label)

    # ------------------------------------------------------------------
    # Low-level persistence (libpmem pass-throughs)
    # ------------------------------------------------------------------
    @untraced
    def persist(self, offset: int, size: int, site: Optional[str] = None) -> None:
        """``pmem_persist`` on a pool range."""
        libpmem.pmem_persist(self.domain, offset, size,
                             site=site if site is not None else pm_call_site(depth=2))

    @untraced
    def flush(self, offset: int, size: int, site: Optional[str] = None) -> None:
        """``pmem_flush`` on a pool range."""
        libpmem.pmem_flush(self.domain, offset, size,
                           site=site if site is not None else pm_call_site(depth=2))

    @untraced
    def drain(self, site: Optional[str] = None) -> None:
        """``pmem_drain`` (fence)."""
        libpmem.pmem_drain(self.domain,
                           site=site if site is not None else pm_call_site(depth=2))

    @property
    def heap_base(self) -> int:
        """First heap offset (everything below is pool metadata + log)."""
        return self.heap.heap_base

    def first_object_oid(self) -> int:
        """OID of the first heap allocation (useful for tests)."""
        return self.heap.heap_base + ALLOC_HEADER_SIZE
