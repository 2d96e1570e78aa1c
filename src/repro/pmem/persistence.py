"""Persistence-domain simulation: the volatile cache in front of PM media.

The central difficulty of PM programming — and the source of every crash
consistency bug the paper targets — is that a CPU store does not reach the
persistent media immediately.  It sits in a volatile cache line until the
line is written back (CLWB) and the writeback is ordered (SFENCE), or until
the cache evicts it at some arbitrary time.

:class:`PersistenceDomain` models exactly that, at cache-line (64 B)
granularity:

* ``store`` updates the volatile view and marks the touched lines DIRTY;
* ``flush`` (CLWB analogue) marks lines FLUSHED — queued for persistence
  but not yet ordered;
* ``drain`` (SFENCE analogue) persists every FLUSHED line.

A *strict crash snapshot* at any point is the media: the bytes that are
guaranteed persistent.  Because real caches may evict dirty lines at
any time, a crash may additionally persist any subset of pending lines;
:mod:`repro.pmem.crash` enumerates those weaker states for the detectors.

One buffer, plus pre-images
---------------------------
The domain keeps a single dense buffer, the volatile view.  The media
is not a second buffer: it differs from the volatile view only at
pending lines, so the domain records, for every pending line, its
*pre-image* — the line's media bytes, copied by the store that dirtied
the CLEAN line.  The media is the volatile view with the pending
pre-images laid over it; a fence persists a line by dropping its
pre-image.  Only a store writes the buffer, and :meth:`share_volatile`
hands it to the caller at pool close; a store after that copies it
first, so a handed-over buffer never changes.  This is the write-set
model of Chipmunk (arxiv 2204.06066): a crash state is built from the
logged lines, not kept as a full copy.

Every operation emits a :class:`TraceEvent` to registered observers.  The
detection tools (:mod:`repro.detect`) and the PM-path instrumentation
(:mod:`repro.instrument`) are both implemented as observers, mirroring how
Pmemcheck and the PMFuzz runtime both consume the PM operation stream.
When *no* observers are registered — the common case on the fuzzing hot
path — the data-path operations skip event construction and dispatch
entirely (only the sequence counter advances), so an uninstrumented
execution pays nothing for the observability seam.

Single-pass crash harvesting
----------------------------
:meth:`plan_snapshots` arms the domain with a set of fence indices and
store indices at which to capture the media state.  A captured
:class:`MediaSnapshot` is cheap: it references the domain plus a dict
of the lines a fence has persisted *since* the capture point — each
one's pre-image, handed over by :meth:`drain` before it drops it — and
builds the full byte image only when read.  This is what lets the
crash-image generator harvest every strict crash image from one
instrumented execution instead of one re-execution per failure point
(see :mod:`repro.core.crashgen`).  When the plan asks for pending
lines, each fence capture also copies the volatile bytes of every line
still pending at that instant (:meth:`pending_overlays`), enough to
rebuild its eviction states; the detection battery
(:mod:`repro.detect.report`) harvests its crash images this way.
"""

from __future__ import annotations

import enum
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional, Set,
                    Tuple)

from repro.errors import PMemError

#: Cache-line size in bytes, matching x86.
CACHE_LINE = 64


class LineState(enum.Enum):
    """Persistence state of a single cache line."""

    CLEAN = "clean"  #: volatile view matches media
    DIRTY = "dirty"  #: stored to, not yet flushed
    FLUSHED = "flushed"  #: flushed (CLWB), awaiting a fence


_DIRTY = LineState.DIRTY
_FLUSHED = LineState.FLUSHED


class TraceEventKind(enum.Enum):
    """Kinds of events in the PM operation trace."""

    STORE = "store"
    LOAD = "load"
    FLUSH = "flush"
    FENCE = "fence"
    # Annotation events emitted by the pmdk layer, not the hardware model.
    TX_BEGIN = "tx_begin"
    TX_COMMIT = "tx_commit"
    TX_ABORT = "tx_abort"
    TX_ADD = "tx_add"
    TX_ADD_REDUNDANT = "tx_add_redundant"
    ALLOC = "alloc"
    FREE = "free"
    POOL_OPEN = "pool_open"
    POOL_CLOSE = "pool_close"
    RECOVERY = "recovery"
    FLUSH_REDUNDANT = "flush_redundant"


class TraceEvent:
    """One entry in the PM operation trace (immutable).

    A slotted class rather than a frozen dataclass: a traced detection
    replay builds one per PM operation, and a frozen dataclass's
    generated ``__init__`` (one ``object.__setattr__`` per field) costs
    about three times as much.  Assignment raises, events compare and
    hash by value, and they pickle.

    Attributes:
        kind: what happened.
        addr: pool-relative byte offset (0 for pure ordering events).
        size: number of bytes affected.
        seq: global sequence number, unique and monotonically increasing.
        site: source call-site label (``file:line`` of the workload code
            that invoked the PM library), used for bug attribution.
    """

    __slots__ = ("kind", "addr", "size", "seq", "site")

    kind: TraceEventKind
    addr: int
    size: int
    seq: int
    site: str

    def __init__(self, kind: TraceEventKind, addr: int, size: int, seq: int,
                 site: str = "") -> None:
        _set_kind(self, kind)
        _set_addr(self, addr)
        _set_size(self, size)
        _set_seq(self, seq)
        _set_site(self, site)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: "
                             f"TraceEvent is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: "
                             f"TraceEvent is immutable")

    def _fields(self) -> tuple:
        return (self.kind, self.addr, self.size, self.seq, self.site)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(kind={self.kind!r}, "
                f"addr={self.addr!r}, size={self.size!r}, seq={self.seq!r}, "
                f"site={self.site!r})")


# The slot descriptors' setters: ``__init__`` fills the slots through
# them because the class's own ``__setattr__`` refuses every assignment.
_set_kind = TraceEvent.__dict__["kind"].__set__
_set_addr = TraceEvent.__dict__["addr"].__set__
_set_size = TraceEvent.__dict__["size"].__set__
_set_seq = TraceEvent.__dict__["seq"].__set__
_set_site = TraceEvent.__dict__["site"].__set__


Observer = Callable[[TraceEvent], None]


class MediaSnapshot:
    """A lazy copy-on-write capture of the media at one instant.

    The snapshot references its domain plus a dict of the media bytes of
    every line a fence has persisted since the capture point (the
    line's pre-image, which :meth:`PersistenceDomain.drain` hands over
    before it drops it).  The capture costs O(1); :attr:`image` builds
    the full media contents when read, as the domain's media with the
    saved lines laid over it — which is what makes harvesting ~8 crash
    images from a single execution cheaper than 8 re-executions, and
    lets a caller build one image at a time.

    The domain keeps only the saved dicts, never the snapshot, so a
    snapshot keeps its domain alive but not the other way round.  A
    snapshot pickles as a :class:`~repro.pmem.crash.CrashSnapshot`
    with its image built, so it crosses a fork-server reply without
    its domain (or the domain's observers).

    Attributes:
        kind: ``"fence"``, ``"store"`` or ``"warm"`` — which crash-point
            family (``"warm"`` is the warm-open cache's prefix capture).
        index: the fence index / store index of the capture point.
        fences_done: fences completed when the capture was taken.  For a
            fence snapshot this is ``index + 1`` (the capture happens
            after the fence's writeback), matching the fence count a
            legacy re-execution crashing at this point would report.
        pending: ``(line, volatile bytes)`` of every line still pending
            at the capture instant — recorded only at fence captures,
            when the plan asks for weak states (see
            :meth:`PersistenceDomain.pending_overlays`).
    """

    __slots__ = ("kind", "index", "fences_done", "pending", "_domain",
                 "_saved")

    def __init__(self, kind: str, index: int, fences_done: int,
                 domain: "PersistenceDomain", saved: Dict[int, bytearray],
                 pending: Tuple[Tuple[int, bytes], ...] = ()) -> None:
        self.kind = kind
        self.index = index
        self.fences_done = fences_done
        self.pending = pending
        self._domain = domain
        #: line index -> the line's media bytes at capture time, recorded
        #: only when a later fence persists the line (copy-on-write).
        self._saved = saved

    def materialize(self) -> bytearray:
        """Build the full media contents at the capture instant.

        Returns a new buffer the caller owns: one copy of the domain's
        volatile view, with the domain's pending pre-images and then
        this snapshot's saved lines written over it.
        """
        buf = self._domain.persisted_copy()
        for line, original in self._saved.items():
            start = line * CACHE_LINE
            buf[start:start + len(original)] = original
        return buf

    @property
    def image(self) -> bytearray:
        """:meth:`materialize`: built on every read, so read it once."""
        return self.materialize()

    def __reduce__(self):
        from repro.pmem.crash import CrashSnapshot

        return CrashSnapshot, (self.kind, self.index, self.fences_done,
                               self.materialize(), self.pending)


class PersistenceDomain:
    """Byte-addressable PM with a simulated volatile cache in front.

    Args:
        size: capacity in bytes.
        initial: optional initial *persistent* contents (e.g. from a PM
            image file); defaults to zeroes.  The domain copies it.

    The domain deliberately has no notion of virtual addresses: all
    addresses are pool-relative offsets, which is the reproduction of the
    paper's derandomization of persistent addresses via
    ``PMEM_MMAP_HINT`` (Section 4.4) — every run sees the same addresses.
    """

    def __init__(self, size: int, initial: Optional[bytes] = None) -> None:
        if size <= 0:
            raise PMemError(f"domain size must be positive, got {size}")
        if initial is not None and len(initial) != size:
            raise PMemError(
                f"initial contents are {len(initial)} bytes, expected {size}"
            )
        self.size = size
        #: The one dense buffer: the program-visible (volatile) view.
        self._volatile = (bytearray(initial) if initial is not None
                          else bytearray(size))
        #: Whether :meth:`share_volatile` handed the buffer out; the next
        #: store copies it first.
        self._shared = False
        #: line index -> state (absent means CLEAN)
        self._lines: Dict[int, LineState] = {}
        #: line index -> media bytes of the line, for every pending line
        #: (same keys as ``_lines``); never written once recorded.
        self._pre: Dict[int, bytearray] = {}
        #: dedicated index of FLUSHED lines, so a fence is O(flushed)
        #: instead of a scan over every tracked (mostly DIRTY) line.
        self._flushed: Set[int] = set()
        self._seq = 0
        self._fence_count = 0
        self._store_count = 0
        self._observers: List[Observer] = []
        #: Optional fence index at which to raise SimulatedCrash; armed
        #: by the workload harness, checked in :meth:`drain`.
        self.crash_at_fence: Optional[int] = None
        #: Optional store index at which to raise SimulatedCrash — a
        #: failure *between* ordering points, where pending (dirty or
        #: flushed-unfenced) lines make the space of possible persistent
        #: states larger than the strict snapshot.
        self.crash_at_store: Optional[int] = None
        #: Snapshot plan for single-pass crash harvesting (empty = off).
        self._snap_fences: FrozenSet[int] = frozenset()
        self._snap_stores: FrozenSet[int] = frozenset()
        self._snap_pending = False
        #: ``(kind, index, fences_done, pending, saved)`` per capture,
        #: in execution order.  Plain records, not snapshots: a
        #: snapshot references its domain, and the domain must not
        #: reference it back.
        self._captures: List[tuple] = []
        #: The ``saved`` dict of every capture: a fence hands each one
        #: the pre-image of every line it persists.
        self._cow: List[Dict[int, bytearray]] = []

    # ------------------------------------------------------------------
    # Observer plumbing
    # ------------------------------------------------------------------
    def add_observer(self, observer: Observer) -> None:
        """Register a callback invoked for every trace event."""
        self._observers.append(observer)

    def remove_observer(self, observer: Observer) -> None:
        """Unregister a previously added observer."""
        self._observers.remove(observer)

    def emit(
        self,
        kind: TraceEventKind,
        addr: int = 0,
        size: int = 0,
        site: str = "",
    ) -> Optional[TraceEvent]:
        """Emit an annotation event (used by the pmdk layer).

        With no observers registered only the sequence counter advances:
        no :class:`TraceEvent` is constructed and ``None`` is returned,
        so the per-PM-op cost of the observability seam is one integer
        increment.  Sequence numbers are identical either way.
        """
        seq = self._seq
        self._seq = seq + 1
        if not self._observers:
            return None
        event = TraceEvent(kind, addr, size, seq, site)
        for observer in self._observers:
            observer(event)
        return event

    # ------------------------------------------------------------------
    # Snapshot planning (single-pass crash harvesting)
    # ------------------------------------------------------------------
    def plan_snapshots(self, fences: Iterable[int] = (),
                       stores: Iterable[int] = (),
                       pending: bool = False) -> None:
        """Arm media captures at the given fence / store indices.

        Must be called before execution reaches the first planned index;
        indices never reached simply produce no snapshot.  With
        ``pending`` every fence capture also records the volatile bytes
        of the lines still pending at that instant, from which the
        eviction states of :func:`repro.pmem.crash.eviction_states` are
        built.
        """
        self._snap_fences = frozenset(fences)
        self._snap_stores = frozenset(stores)
        self._snap_pending = pending

    def _capture(self, kind: str, index: int, fences_done: int,
                 pending: Tuple[Tuple[int, bytes], ...] = ()) -> None:
        saved: Dict[int, bytearray] = {}
        self._captures.append((kind, index, fences_done, pending, saved))
        self._cow.append(saved)

    def take_snapshots(self) -> List[MediaSnapshot]:
        """Return the snapshots captured so far, in execution order.

        Each one builds its image only when read.  Warm-open prefix
        captures (kind ``"warm"``) are internal to the executor's pool
        cache and never part of a crash-harvest plan, so they are
        excluded.
        """
        return [MediaSnapshot(kind, index, fences_done, self, saved, pending)
                for kind, index, fences_done, pending, saved
                in self._captures if kind != "warm"]

    # ------------------------------------------------------------------
    # Warm-open prefix capture / restore (executor pool cache)
    # ------------------------------------------------------------------
    def capture_warm_state(self) -> tuple:
        """Capture this domain's complete state for later reconstruction.

        Returns ``(snapshot, pending, seq, fence_count, store_count)``:
        a copy-on-write :class:`MediaSnapshot` of the media (registered
        with the domain so later fences preserve its view, exactly like
        a crash-plan snapshot) plus ``{line: (is_flushed, volatile
        bytes)}`` for every pending line.  Because CLEAN lines have
        volatile == media by construction, media + pending lines fully
        determine the domain; counters make the reconstruction
        observably identical (fence/store indexing, trace seq).
        """
        self._capture("warm", -1, self._fence_count)
        snapshot = MediaSnapshot("warm", -1, self._fence_count, self,
                                 self._cow[-1])
        pending: Dict[int, Tuple[bool, bytes]] = {}
        volatile = self._volatile
        for line, state in self._lines.items():
            start = line * CACHE_LINE
            pending[line] = (state is LineState.FLUSHED,
                             bytes(volatile[start:start + CACHE_LINE]))
        return snapshot, pending, self._seq, self._fence_count, \
            self._store_count

    def warm_restore(self, pending: Dict[int, Tuple[bool, bytes]],
                     seq: int, fence_count: int, store_count: int) -> None:
        """Rebuild the state captured by :meth:`capture_warm_state`.

        ``self`` must be freshly constructed from the captured media
        (``initial=`` the materialized snapshot); this records each
        pending line's media bytes as its pre-image, overlays the
        pending volatile lines and restores the line states and
        counters.
        """
        self._unshare()
        volatile = self._volatile
        lines = self._lines
        pre = self._pre
        flushed = self._flushed
        for line, (is_flushed, data) in pending.items():
            start = line * CACHE_LINE
            end = start + len(data)
            pre[line] = volatile[start:end]
            volatile[start:end] = data
            if is_flushed:
                lines[line] = LineState.FLUSHED
                flushed.add(line)
            else:
                lines[line] = LineState.DIRTY
        self._seq = seq
        self._fence_count = fence_count
        self._store_count = store_count

    # ------------------------------------------------------------------
    # Data-path operations
    # ------------------------------------------------------------------
    def _check_range(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise PMemError(
                f"access [{addr}, {addr + size}) outside domain of size {self.size}"
            )

    def _unshare(self) -> None:
        """Copy the buffer :meth:`share_volatile` handed out, if it did."""
        if self._shared:
            self._volatile = bytearray(self._volatile)
            self._shared = False

    def load(self, addr: int, size: int, site: str = "") -> bytes:
        """Read ``size`` bytes from the volatile view (a PM read)."""
        self._check_range(addr, size)
        self.emit(TraceEventKind.LOAD, addr, size, site)
        return bytes(self._volatile[addr : addr + size])

    def store(self, addr: int, data: bytes, site: str = "") -> None:
        """Write ``data`` at ``addr`` (a PM store; volatile until persisted).

        A line that was CLEAN first records its current bytes — its
        media bytes — as its pre-image.
        """
        size = len(data)
        self._check_range(addr, size)
        if self._shared:
            self._unshare()
        volatile = self._volatile
        if size:
            lines = self._lines
            for line in range(addr // CACHE_LINE,
                              (addr + size - 1) // CACHE_LINE + 1):
                state = lines.get(line)
                if state is None:
                    start = line * CACHE_LINE
                    self._pre[line] = volatile[start:start + CACHE_LINE]
                    lines[line] = _DIRTY
                elif state is _FLUSHED:
                    lines[line] = _DIRTY
                    self._flushed.discard(line)
        volatile[addr : addr + size] = data
        store_index = self._store_count
        self._store_count += 1
        self.emit(TraceEventKind.STORE, addr, size, site)
        if store_index in self._snap_stores:
            self._capture("store", store_index, self._fence_count)
        if self.crash_at_store is not None and store_index == self.crash_at_store:
            from repro.errors import SimulatedCrash

            raise SimulatedCrash(store_index, kind="store")

    def flush(self, addr: int, size: int, site: str = "") -> None:
        """Write back the cache lines covering ``[addr, addr+size)`` (CLWB).

        Flushing a CLEAN line is legal but useless; the domain emits a
        ``FLUSH_REDUNDANT`` annotation so the Pmemcheck-like detector can
        report it as a performance bug (paper Bug 7).
        """
        self._check_range(addr, size)
        redundant = True
        if size:
            lines = self._lines
            flushed = self._flushed
            first = addr // CACHE_LINE
            last = (addr + size - 1) // CACHE_LINE
            for line in range(first, last + 1):
                if lines.get(line) is LineState.DIRTY:
                    lines[line] = LineState.FLUSHED
                    flushed.add(line)
                    redundant = False
        self.emit(TraceEventKind.FLUSH, addr, size, site)
        if redundant:
            self.emit(TraceEventKind.FLUSH_REDUNDANT, addr, size, site)

    def drain(self, site: Optional[str] = None) -> None:
        """Persist all flushed lines (SFENCE).

        Each flushed line's pre-image goes to every capture that has not
        saved the line yet (copy-on-write), and is then dropped: the
        line's media bytes are now its volatile bytes.

        If :attr:`crash_at_fence` equals the index of this fence, a
        :class:`~repro.errors.SimulatedCrash` is raised *after* the fence
        takes effect — i.e. the crash image contains everything this fence
        persisted, matching the paper's placement of failures *at*
        ordering points (Section 3.2).
        """
        flushed = self._flushed
        if flushed:
            lines = self._lines
            pre = self._pre
            cow = self._cow
            for line in flushed:
                original = pre.pop(line)
                for saved in cow:
                    if line not in saved:
                        saved[line] = original
                del lines[line]
            flushed.clear()
        fence_index = self._fence_count
        self._fence_count += 1
        self.emit(TraceEventKind.FENCE, 0, 0, site or "")
        if fence_index in self._snap_fences:
            self._capture("fence", fence_index, fence_index + 1,
                          self.pending_overlays() if self._snap_pending
                          else ())
        if self.crash_at_fence is not None and fence_index == self.crash_at_fence:
            from repro.errors import SimulatedCrash

            raise SimulatedCrash(fence_index)

    def persist(self, addr: int, size: int, site: str = "") -> None:
        """Flush + fence convenience (``pmem_persist`` analogue)."""
        self.flush(addr, size, site)
        self.drain(site)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fence_count(self) -> int:
        """Number of fences executed so far (ordering points)."""
        return self._fence_count

    @property
    def store_count(self) -> int:
        """Number of stores executed so far (probabilistic crash points)."""
        return self._store_count

    @property
    def seq(self) -> int:
        """Current trace sequence number."""
        return self._seq

    def line_state(self, addr: int) -> LineState:
        """Return the persistence state of the line containing ``addr``."""
        self._check_range(addr, 1)
        return self._lines.get(addr // CACHE_LINE, LineState.CLEAN)

    def pending_lines(self) -> Dict[int, LineState]:
        """Return a copy of all not-yet-persisted line states."""
        return dict(self._lines)

    def pending_overlays(self) -> Tuple[Tuple[int, bytes], ...]:
        """Return ``(line, volatile bytes)`` for every pending line, in
        line order: what each line would write to the media if the
        cache evicted it now."""
        volatile = self._volatile
        overlays = []
        for line in sorted(self._lines):
            start = line * CACHE_LINE
            overlays.append((line, bytes(volatile[start:start + CACHE_LINE])))
        return tuple(overlays)

    def volatile_view(self) -> bytes:
        """Return the program-visible contents (what loads observe)."""
        return bytes(self._volatile)

    def persisted_view(self) -> bytes:
        """Return the strict crash snapshot: only fenced data."""
        if not self._pre:
            return bytes(self._volatile)
        return bytes(self.persisted_copy())

    def share_volatile(self) -> bytearray:
        """Hand the volatile buffer itself to the caller, without a copy.

        The caller must not write to it.  The domain stays usable: its
        next store copies the buffer first, so the handed-over bytes
        never change.
        """
        self._shared = True
        return self._volatile

    def persisted_copy(self) -> bytearray:
        """:meth:`persisted_view` as a new, caller-owned ``bytearray``."""
        buf = bytearray(self._volatile)
        for line, original in self._pre.items():
            start = line * CACHE_LINE
            buf[start:start + len(original)] = original
        return buf
