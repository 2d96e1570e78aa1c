"""Content-addressed warm-open pool cache: the per-exec fast path.

Every execution begins with the same prefix: validate the image
(serialize + CRC round trip), copy it, rebuild the persistence domain,
mount the pool, run transaction recovery and application-level
recovery/creation — all before the first fuzzed command.  Children of
one queue entry run against the *same* parent image, so a campaign
re-executes an identical prefix a dozen times per fuzzing round.  This
is the paper's Section-4.7 SysOpt argument taken one step further: not
only does the image move through memory instead of the filesystem, the
post-open state itself is memoized.

A cache entry captures the complete post-prefix state:

* the domain — a copy-on-write :class:`~repro.pmem.persistence.
  MediaSnapshot` of the media (maintained by ``drain`` exactly like a
  crash-plan snapshot, and built into one buffer when the entry is
  frozen) plus the pending volatile lines and the seq/fence/store
  counters;
* the prefix's recorded side effects — the branch-coverage and PM
  counter-map sparse deltas (with their edge-chain state) and the
  PM sites hit.

On a hit the executor rebuilds the domain from the frozen media (one
copy: the domain's only buffer), overlays the pending lines, remounts
the pool (the pool constructor never touches the domain) and replays
the recorded deltas — so sparse maps, ``comparable()`` stats, crash
images and the Figure-13 virtual time are byte-identical to a cold open
(``tests/test_fastpath_grid.py`` proves this across backends × cache ×
isolation).

Bypass rules (correctness over speed):

* armed fault injectors and trace collection: the prefix's injected
  faults / trace events must actually happen — the executor never
  constructs a warm context for those runs;
* snapshot plans: planned fence/store indices may land inside the
  prefix — bypassed the same way.

Crash points never meet the cache: the executor takes none, and
:func:`~repro.fuzz.harness.run_workload` refuses a warm context
together with a crash point.

The cache lives per executor — which under fork isolation means per
worker process, inherited through the fork exactly like the rest of
the executor state.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.instrument.branchcov import untraced
from repro.pmem.image import PMImage
from repro.pmem.persistence import PersistenceDomain


class WarmEntry:
    """One cached post-prefix state (see module docstring)."""

    __slots__ = ("layout", "uuid", "snapshot", "media", "pending", "seq",
                 "fence_count", "store_count", "branch_pairs", "branch_prev",
                 "pm_pairs", "pm_prev", "sites")

    def __init__(self, layout: str, uuid: bytes, snapshot, pending, seq: int,
                 fence_count: int, store_count: int,
                 branch_pairs: Tuple[Tuple[int, int], ...], branch_prev: int,
                 pm_pairs: Tuple[Tuple[int, int], ...], pm_prev: int,
                 sites: FrozenSet[str]) -> None:
        self.layout = layout
        self.uuid = uuid
        #: Live CoW snapshot while the capturing execution may still
        #: fence; frozen into :attr:`media` on the next cache call.
        self.snapshot = snapshot
        #: The frozen media; never written (each restore copies it).
        self.media: Optional[bytearray] = None
        self.pending = pending
        self.seq = seq
        self.fence_count = fence_count
        self.store_count = store_count
        self.branch_pairs = branch_pairs
        self.branch_prev = branch_prev
        self.pm_pairs = pm_pairs
        self.pm_prev = pm_prev
        self.sites = sites

    def freeze(self) -> None:
        """Build the CoW snapshot's media and drop the snapshot."""
        if self.media is None:
            self.media = self.snapshot.materialize()
            self.snapshot = None


class WarmOpenCache:
    """Content-addressed LRU over :class:`WarmEntry` records.

    Keys are the engine's content-derived image id when available (the
    corpus store already pays that hash), else ``(layout, uuid,
    sha256(payload))`` computed here — two images that differ in any
    header field or payload byte can never share an entry.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[object, WarmEntry]" = OrderedDict()
        #: The most recently stored entry: its capturing execution may
        #: still be running, so its snapshot cannot be materialized yet.
        self._unfrozen: Optional[WarmEntry] = None
        # Host-side observability only — never part of comparable().
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    @staticmethod
    def key_for(image: PMImage, image_key: Optional[str] = None):
        """The cache key for ``image`` (hint avoids re-hashing)."""
        if image_key:
            return image_key
        return (image.layout, bytes(image.uuid),
                hashlib.sha256(image.payload).digest())

    def _freeze_pending(self) -> None:
        """Freeze the last stored entry.

        Called at the start of every cache interaction: the executor is
        serial per process, so by the time the *next* execution consults
        the cache, the capturing execution has finished and the snapshot
        view is final.  (A hit on the entry's own key also lands here
        first, so an entry is always frozen before it is replayed.)
        """
        if self._unfrozen is not None:
            self._unfrozen.freeze()
            self._unfrozen = None

    # ------------------------------------------------------------------
    def get(self, key) -> Optional[WarmEntry]:
        """Return the frozen entry for ``key``, or None (counts a miss)."""
        self._freeze_pending()
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, entry: WarmEntry) -> None:
        """Insert ``entry`` (unfrozen) under ``key``, evicting LRU."""
        self._freeze_pending()
        self._entries.pop(key, None)
        self._entries[key] = entry
        self._unfrozen = entry
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            if evicted is self._unfrozen:  # pragma: no cover - capacity >= 1
                self._unfrozen = None
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._unfrozen = None

    def __len__(self) -> int:
        return len(self._entries)


class WarmContext:
    """Per-execution binding of the cache to one run's state.

    Built by the executor only for cache-eligible runs (no injector, no
    trace collection, no snapshot plan) and handed to the workload
    harness, which calls :meth:`lookup` before the cold open and
    :meth:`store` right after the prefix completes.
    """

    __slots__ = ("cache", "image", "image_key", "branch_cov", "ctx", "_key")

    def __init__(self, cache: WarmOpenCache, image: PMImage,
                 image_key: Optional[str], branch_cov, ctx) -> None:
        self.cache = cache
        self.image = image
        self.image_key = image_key
        self.branch_cov = branch_cov
        self.ctx = ctx
        self._key = None

    # ------------------------------------------------------------------
    # Both are called by the harness while the recorder runs; neither
    # calls back into workload code.
    @untraced
    def lookup(self, layout: str):
        """Return a restored post-prefix pool, or None to open cold."""
        self._key = WarmOpenCache.key_for(self.image, self.image_key)
        entry = self.cache.get(self._key)
        if entry is None:
            return None
        if entry.layout != layout or entry.uuid != bytes(self.image.uuid):
            # Content hash collision across layouts cannot happen (the
            # key embeds both), but an engine-supplied key is trusted
            # input — verify rather than assume.
            self.cache.misses += 1
            self.cache.hits -= 1
            return None
        return self._restore(entry)

    def _restore(self, entry: WarmEntry):
        from repro.pmdk.pool import PmemObjPool

        domain = PersistenceDomain(len(entry.media), entry.media)
        domain.warm_restore(entry.pending, entry.seq, entry.fence_count,
                            entry.store_count)
        # The pool image's payload is only written at close(); an empty
        # placeholder avoids copying 256 KiB that nothing reads.
        pool_image = PMImage(layout=entry.layout, payload=bytearray(),
                             uuid=bytes(entry.uuid))
        pool = PmemObjPool(pool_image, domain)
        # Replay the prefix's recorded side effects.
        self.branch_cov.preload(entry.branch_pairs, entry.branch_prev)
        self.ctx.counter_map.preload(entry.pm_pairs, entry.pm_prev)
        self.ctx.sites_hit.update(entry.sites)
        return pool

    # ------------------------------------------------------------------
    @untraced
    def store(self, pool) -> None:
        """Capture the just-completed prefix state of ``pool``."""
        snapshot, pending, seq, fence_count, store_count = \
            pool.domain.capture_warm_state()
        entry = WarmEntry(
            layout=self.image.layout,
            uuid=bytes(self.image.uuid),
            snapshot=snapshot,
            pending=pending,
            seq=seq,
            fence_count=fence_count,
            store_count=store_count,
            branch_pairs=tuple(self.branch_cov.sparse()),
            branch_prev=self.branch_cov.prev_loc,
            pm_pairs=tuple(self.ctx.counter_map.sparse()),
            pm_prev=self.ctx.counter_map.prev_id,
            sites=frozenset(self.ctx.sites_hit),
        )
        self.cache.put(self._key, entry)
