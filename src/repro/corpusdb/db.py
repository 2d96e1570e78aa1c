"""The on-disk corpus database: tiers, compactor, listener, lock.

Layout under one database root (one database per workload)::

    <root>/DBMETA.json        format marker (version-checked on open)
    <root>/hot/<key>.entry    recently published entries
    <root>/cold/<key>.entry   compacted older entries
    <root>/journal/*.intent   write-ahead intents (see journal.py)
    <root>/quarantine/        damaged entries claimed by the scrubber
    <root>/MAINTENANCE.lock   held while a repair pass owns the store

Entries are content-addressed: the key is the SHA-256 of the framed
(test input, serialized PM image) pair, so the same discovery published
by two campaigns deduplicates to one file, and a misfiled entry is
detectable by re-hashing.  The entry container itself reuses the fleet
syncer's checksummed atomic format (:data:`CORPUS_ENTRY_MAGIC`), which
is what lets :class:`~repro.core.storage.CorpusScrubber` heal both
stores with the same code.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from typing import Dict, List, Optional

from repro._util import atomic_write_bytes, move_durable, \
    pack_checksummed, unpack_checksummed
from repro._vfs import current_vfs
from repro.core.storage import CORPUS_ENTRY_MAGIC, CORPUS_ENTRY_SUFFIX
from repro.errors import CorpusCorruptionError, CorpusDBError

#: On-disk format marker, bumped on incompatible layout changes.
DB_FORMAT_VERSION = 1

DB_META_NAME = "DBMETA.json"
DB_LOCK_NAME = "MAINTENANCE.lock"

#: A maintenance lock older than this is presumed abandoned (the repair
#: process died) and no longer blocks campaigns.
DEFAULT_LOCK_TTL_S = 900.0

#: Entries kept in the hot tier before the compactor moves the excess.
DEFAULT_HOT_LIMIT = 256


class CorpusDBPaths:
    """Filesystem layout of one corpus database."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.hot = os.path.join(root, "hot")
        self.cold = os.path.join(root, "cold")
        self.journal = os.path.join(root, "journal")
        self.quarantine = os.path.join(root, "quarantine")
        self.meta = os.path.join(root, DB_META_NAME)
        self.lock = os.path.join(root, DB_LOCK_NAME)

    def tier_dirs(self):
        return (self.hot, self.cold)


def entry_key(data: bytes, image_bytes: bytes) -> str:
    """Content address of one (input, image) discovery.

    Length-framed so ``(b"ab", b"c")`` and ``(b"a", b"bc")`` cannot
    collide.
    """
    h = hashlib.sha256()
    h.update(len(data).to_bytes(8, "little"))
    h.update(data)
    h.update(image_bytes)
    return h.hexdigest()


class CorpusDatabase:
    """One open corpus database.

    All I/O faults are drawn from the injector's *host* stream
    (:meth:`~repro.resilience.faults.EnvFaultInjector.check_host`):
    how often a campaign touches the shared database is a hosting
    choice, so the draws must never perturb the campaign-class fault
    stream.
    """

    def __init__(self, paths: CorpusDBPaths, env_faults=None) -> None:
        from repro.corpusdb.journal import IntentJournal

        self.paths = paths
        self.env_faults = env_faults
        self.journal = IntentJournal(paths.journal)

    # ------------------------------------------------------------------
    # Open / create
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, root: str, create: bool = True, env_faults=None,
             lock_ttl: float = DEFAULT_LOCK_TTL_S,
             ignore_lock: bool = False) -> "CorpusDatabase":
        """Open (and optionally create) the database at ``root``.

        Creation makes only the *leaf* directory: a database whose
        parent directory is gone is treated as *missing*, not silently
        recreated somewhere nothing else will ever look.

        Raises :class:`CorpusDBError` with ``reason`` "missing",
        "locked", or "format" — the degradation ladder's typed rungs.
        """
        paths = CorpusDBPaths(root)
        if not os.path.isdir(root):
            if not create:
                raise CorpusDBError(
                    f"corpus database missing at {root}", reason="missing")
            try:
                os.mkdir(root)
            except OSError as exc:
                raise CorpusDBError(
                    f"cannot create corpus database at {root}: {exc}",
                    reason="missing")
        if not ignore_lock and os.path.exists(paths.lock):
            try:
                age = time.time() - os.path.getmtime(paths.lock)
            except OSError:
                age = lock_ttl  # vanished between exists() and stat
            if age < lock_ttl:
                raise CorpusDBError(
                    f"corpus database at {root} is locked for maintenance",
                    reason="locked")
        if os.path.exists(paths.meta):
            try:
                with open(paths.meta, "r", encoding="utf-8") as fh:
                    meta = json.load(fh)
                version = int(meta["version"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise CorpusDBError(
                    f"unreadable corpus database metadata at {paths.meta}: "
                    f"{exc}", reason="format")
            if version != DB_FORMAT_VERSION:
                raise CorpusDBError(
                    f"corpus database format v{version} at {root}; this "
                    f"build speaks v{DB_FORMAT_VERSION}", reason="format")
        else:
            atomic_write_bytes(paths.meta, json.dumps({
                "format": "repro-corpusdb",
                "version": DB_FORMAT_VERSION,
                "entry_magic": CORPUS_ENTRY_MAGIC.decode("ascii").strip(),
            }, sort_keys=True).encode("ascii") + b"\n", fsync=False)
        for sub in (paths.hot, paths.cold, paths.journal, paths.quarantine):
            os.makedirs(sub, exist_ok=True)
        return cls(paths, env_faults=env_faults)

    # ------------------------------------------------------------------
    # Maintenance lock
    # ------------------------------------------------------------------
    def lock_maintenance(self) -> None:
        atomic_write_bytes(
            self.paths.lock,
            f"pid={os.getpid()} at={time.time():.0f}\n".encode("ascii"),
            fsync=False)

    def unlock_maintenance(self) -> None:
        try:
            os.remove(self.paths.lock)
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # Entry addressing
    # ------------------------------------------------------------------
    def hot_path(self, key: str) -> str:
        return os.path.join(self.paths.hot, key + CORPUS_ENTRY_SUFFIX)

    def cold_path(self, key: str) -> str:
        return os.path.join(self.paths.cold, key + CORPUS_ENTRY_SUFFIX)

    def find(self, key: str) -> Optional[str]:
        """Path of an entry in whichever tier holds it, else None."""
        for path in (self.hot_path(key), self.cold_path(key)):
            if os.path.exists(path):
                return path
        return None

    def _check(self, site: str) -> None:
        if self.env_faults is not None:
            self.env_faults.check_host(site)

    # ------------------------------------------------------------------
    # Core operations (each journaled; each a single atomic FS op)
    # ------------------------------------------------------------------
    def publish(self, payload: Dict) -> bool:
        """Durably add one entry; False if the key already exists."""
        key = payload["key"]
        self._check("corpusdb-publish")
        self._check("disk-full")
        if self.find(key) is not None:
            return False
        self._check("corpusdb-journal")
        intent = self.journal.begin("publish", key)
        blob = pack_checksummed(CORPUS_ENTRY_MAGIC,
                                pickle.dumps(payload, protocol=4))
        atomic_write_bytes(self.hot_path(key), blob)
        self.journal.commit(intent)
        return True

    def get(self, key: str) -> Dict:
        """Load one entry's payload.

        Raises :class:`CorpusCorruptionError` on a damaged entry (the
        caller quarantines it) and :class:`CorpusDBError` when the key
        is absent from both tiers.
        """
        self._check("corpusdb-read")
        path = self.find(key)
        if path is None:
            raise CorpusDBError(f"no corpus entry {key}", reason="missing")
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise CorpusCorruptionError(f"unreadable entry {key}: {exc}",
                                        entry=key)
        try:
            blob = unpack_checksummed(CORPUS_ENTRY_MAGIC, data,
                                      what=os.path.basename(path))
            payload = pickle.loads(blob)
        except (ValueError, pickle.UnpicklingError, EOFError) as exc:
            raise CorpusCorruptionError(f"damaged entry {key}: {exc}",
                                        entry=key)
        return payload

    def retire(self, key: str) -> bool:
        """Journaled removal from both tiers; True if anything existed."""
        self._check("corpusdb-journal")
        intent = self.journal.begin("retire", key)
        removed = False
        vfs = current_vfs()
        for path in (self.hot_path(key), self.cold_path(key)):
            try:
                vfs.unlink(path)
                removed = True
            except FileNotFoundError:
                pass
        self.journal.commit(intent)
        return removed

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def _tier_keys(self, directory: str) -> List[str]:
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        return [n[:-len(CORPUS_ENTRY_SUFFIX)] for n in names
                if n.endswith(CORPUS_ENTRY_SUFFIX)]

    def keys(self) -> List[str]:
        """Sorted union of both tiers' entry keys."""
        self._check("corpusdb-read")
        return sorted(set(self._tier_keys(self.paths.hot))
                      | set(self._tier_keys(self.paths.cold)))

    def info(self) -> Dict:
        """Counts and sizes for ``corpusdb info``."""
        hot = self._tier_keys(self.paths.hot)
        cold = self._tier_keys(self.paths.cold)
        total_bytes = 0
        for directory in self.paths.tier_dirs():
            try:
                for name in os.listdir(directory):
                    try:
                        total_bytes += os.path.getsize(
                            os.path.join(directory, name))
                    except OSError:
                        pass
            except OSError:
                pass
        try:
            quarantined = len([n for n in os.listdir(self.paths.quarantine)
                               if n.endswith(CORPUS_ENTRY_SUFFIX)])
        except OSError:
            quarantined = 0
        return {
            "root": self.paths.root,
            "hot": len(hot),
            "cold": len(cold),
            "entries": len(set(hot) | set(cold)),
            "bytes": total_bytes,
            "journal_pending": len(self.journal.pending()),
            "quarantined": quarantined,
        }

    # ------------------------------------------------------------------
    # Compaction (kill-safe at any instruction)
    # ------------------------------------------------------------------
    def compact(self, hot_limit: int = DEFAULT_HOT_LIMIT,
                max_moves: Optional[int] = None) -> int:
        """Move the oldest hot entries cold until ``hot_limit`` remain.

        Each move is journal intent → crash-safe tier move
        (:func:`~repro._util.move_durable`: link into the cold tier,
        fsync it, unlink the hot name) → intent commit, so a SIGKILL
        between any two instructions leaves either a completed move, a
        benign both-tiers duplicate the journal replay collapses, or an
        intent that :meth:`replay_journal` finishes.  A bare
        cross-directory ``os.replace`` here would let a crash persist
        the hot-side removal without the cold-side insertion and lose
        the entry — the exact ordering bug the durability auditor
        (:mod:`repro.audit`) enumerates.  The move is also the *claim*:
        of two racing compactors, exactly one performs it and the other
        observes ``FileNotFoundError``.
        """
        try:
            names = [n for n in os.listdir(self.paths.hot)
                     if n.endswith(CORPUS_ENTRY_SUFFIX)]
        except OSError:
            return 0
        excess = len(names) - max(0, hot_limit)
        if excess <= 0:
            return 0
        if max_moves is not None:
            excess = min(excess, max_moves)

        def age(name: str):
            try:
                return (os.path.getmtime(os.path.join(self.paths.hot, name)),
                        name)
            except OSError:
                return (float("inf"), name)

        moved = 0
        for name in sorted(names, key=age)[:excess]:
            key = name[:-len(CORPUS_ENTRY_SUFFIX)]
            self._check("corpusdb-compact")
            intent = self.journal.begin("compact", key)
            try:
                move_durable(self.hot_path(key), self.cold_path(key))
                moved += 1
            except FileNotFoundError:
                pass  # a racing compactor (or replay) claimed the move
            self.journal.commit(intent)
        return moved

    def replay_journal(self):
        """Heal interrupted operations; see :meth:`IntentJournal.replay`."""
        return self.journal.replay(self)


class CorpusListener:
    """Poll-based directory watcher: which keys appeared since last poll?

    The pub/sub half of the database: a publisher's atomic rename *is*
    the notification, and subscribers poll the tier listings — no
    daemon, no IPC, nothing that can wedge a campaign.  The seen-set is
    checkpointable so a resumed campaign does not re-import history.
    """

    def __init__(self, db: CorpusDatabase) -> None:
        self.db = db
        self._seen = set()

    def prime(self, keys) -> None:
        """Mark ``keys`` as already observed (warm-start did them)."""
        self._seen.update(keys)

    def poll(self) -> List[str]:
        """Sorted keys published since the previous poll."""
        fresh = [k for k in self.db.keys() if k not in self._seen]
        self._seen.update(fresh)
        return fresh

    def getstate(self):
        return set(self._seen)

    def setstate(self, state) -> None:
        self._seen = set(state)
