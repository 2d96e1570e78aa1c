"""Test-case storage management (Section 4.7, "Test Case Storage").

A 4-hour PMFuzz campaign produced ~1.5 TB of test cases, dominated by PM
images; the PM device alone cannot hold them.  PMFuzz exploits the
periodic shape of fuzzing — generated images are not needed until the
next iteration — to move test cases off the PM device to an SSD,
compressed with LZ77, and to decompress an image back only when it is
selected as an input.

:class:`TestCaseStorage` models that tiering on top of the image store:
it tracks where each image currently "lives" (PM staging vs compressed
SSD), enforces a PM staging budget, and accounts the bytes each tier
holds — the numbers the Section 4.7 ablation bench reports.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro._util import move_durable, unpack_checksummed
from repro._vfs import current_vfs
from repro.core.dedup import ImageStore
from repro.pmem.image import PMImage

#: Container magic of a shared-corpus entry file, the checksummed
#: container :class:`CorpusScrubber` verifies by default.
CORPUS_ENTRY_MAGIC = b"PMFZSYNC1\n"

#: Shared-corpus entry file suffix.
CORPUS_ENTRY_SUFFIX = ".entry"


class TestCaseStorage:
    """Two-tier (PM staging / compressed SSD) test-case storage.

    Args:
        store: the content-addressed image store (the SSD tier).
        pm_budget_bytes: capacity of the PM staging area; images beyond
            it are evicted (they remain on the SSD tier, compressed).
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, store: Optional[ImageStore] = None,
                 pm_budget_bytes: int = 8 * 1024 * 1024) -> None:
        self.store = store if store is not None else ImageStore(compress=True)
        self.pm_budget_bytes = pm_budget_bytes
        #: image_id -> materialized image, LRU order (PM staging tier).
        self._staging: "OrderedDict[str, PMImage]" = OrderedDict()
        self._staged_bytes = 0
        self.decompressions = 0
        self.evictions = 0
        #: loads that failed in the SSD tier (environment faults); the
        #: decompression/eviction accounting only ever reflects loads
        #: that *completed*, so a failed load leaves it untouched.
        self.load_faults = 0

    # ------------------------------------------------------------------
    def save(self, image: PMImage) -> tuple:
        """Persist a generated image (SSD tier); returns (id, is_new)."""
        return self.store.put(image)

    def load(self, image_id: str) -> PMImage:
        """Fetch an image for use as a fuzzing input.

        A staging hit is free; a miss decompresses from the SSD tier and
        stages the result (evicting LRU images past the PM budget).  A
        load that fails mid-way (an injected storage fault) mutates no
        tier state: the image is neither counted as decompressed nor
        staged, so the Section 4.7 accounting stays consistent.
        """
        staged = self._staging.get(image_id)
        if staged is not None:
            self._staging.move_to_end(image_id)
            return staged
        try:
            image = self.store.get(image_id)
        except Exception:
            self.load_faults += 1
            raise
        self.decompressions += 1
        self._stage(image_id, image)
        return image

    def staged(self, image_id: str) -> Optional[PMImage]:
        """The staged image for ``image_id``, or None if not staged.

        A pure peek: no fault site, no LRU reordering, no accounting,
        so callers that only plan ahead leave the tiers untouched.
        """
        return self._staging.get(image_id)

    def _stage(self, image_id: str, image: PMImage) -> None:
        self._staging[image_id] = image
        self._staged_bytes += len(image)
        while self._staged_bytes > self.pm_budget_bytes and len(self._staging) > 1:
            victim_id, victim = self._staging.popitem(last=False)
            self._staged_bytes -= len(victim)
            self.evictions += 1

    # ------------------------------------------------------------------
    @property
    def staged_bytes(self) -> int:
        """Bytes currently occupying the PM staging tier."""
        return self._staged_bytes

    @property
    def ssd_bytes(self) -> int:
        """Bytes on the (compressed) SSD tier."""
        return self.store.stored_bytes

    @property
    def raw_bytes(self) -> int:
        """Bytes all images would occupy uncompressed."""
        return self.store.raw_bytes

    @property
    def corrupt_quarantined(self) -> int:
        """Genuinely-damaged images retired by the store (see
        :meth:`~repro.core.dedup.ImageStore.get`)."""
        return self.store.corrupt_quarantined

    def summary(self) -> str:
        """One-line storage report for the benches."""
        return (f"{len(self.store)} images: raw {self.raw_bytes / 1e6:.1f} MB, "
                f"ssd {self.ssd_bytes / 1e6:.1f} MB "
                f"(x{self.store.compression_ratio:.1f} compression), "
                f"pm staging {self.staged_bytes / 1e6:.1f} MB, "
                f"{self.evictions} evictions")


# ----------------------------------------------------------------------
# Corpus scrubbing (self-healing shared storage)
# ----------------------------------------------------------------------
@dataclass
class ScrubReport:
    """What one scrub pass found and did."""

    scanned: int = 0  #: entry files examined
    healthy: int = 0  #: entries that passed verification
    quarantined: int = 0  #: corrupt/truncated entries moved aside
    claimed_elsewhere: int = 0  #: bad entries another scrubber moved first
    cleaned_tmp: int = 0  #: orphaned atomic-write temp files removed
    reasons: Dict[str, str] = field(default_factory=dict)  #: name -> why


class CorpusScrubber:
    """Self-healing pass over a shared corpus directory.

    Walks every ``*.entry`` file, verifies its checksummed container
    (magic, header, SHA-256 over the full payload — which covers both
    truncation and bit-flips), and *quarantines* damaged files instead
    of letting them kill an importer: a bad entry is claimed by a
    durable move (:func:`~repro._util.move_durable`) into the
    quarantine directory (claim-by-rename — when several scrubbers run
    concurrently, exactly one wins the claim and counts the entry; the
    losers observe ``ENOENT`` and move on).  Orphaned ``*.tmp`` files
    older than ``tmp_grace`` seconds (leftovers of a writer killed
    mid-``atomic_write_bytes``; younger ones may be in-flight writes)
    are deleted.

    No campaign path calls it since the fleet and the corpus database
    were retired; the ``corpus`` and ``storage`` audit components keep
    its crash safety checked until it is retired too.
    """

    def __init__(self, corpus_dir: str, quarantine_dir: str,
                 magic: bytes = CORPUS_ENTRY_MAGIC,
                 suffix: str = CORPUS_ENTRY_SUFFIX,
                 tmp_grace: float = 60.0) -> None:
        self.corpus_dir = corpus_dir
        self.quarantine_dir = quarantine_dir
        self.magic = magic
        self.suffix = suffix
        self.tmp_grace = tmp_grace

    # ------------------------------------------------------------------
    def verify_file(self, path: str) -> Optional[str]:
        """None if the entry is healthy, else the damage reason."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return f"unreadable: {exc}"
        try:
            unpack_checksummed(self.magic, data,
                               what=os.path.basename(path))
        except ValueError as exc:
            return str(exc)
        return None

    def quarantine(self, path: str, reason: str) -> bool:
        """Claim a damaged entry by durable move; False if claimed elsewhere.

        The collision suffix counts up deterministically (``.dup1``,
        ``.dup2``, ...) so re-running a scrub over the same crash state
        produces byte-identical quarantine trees — the property the
        durability auditor's idempotence check verifies.
        """
        vfs = current_vfs()
        vfs.mkdir(self.quarantine_dir)
        target = os.path.join(self.quarantine_dir, os.path.basename(path))
        n = 0
        while os.path.exists(target):  # same name quarantined before
            n += 1
            target = os.path.join(self.quarantine_dir,
                                  os.path.basename(path) + f".dup{n}")
        try:
            move_durable(path, target)
        except FileNotFoundError:
            return False
        try:
            vfs.write_bytes(target + ".reason",
                            (reason + "\n").encode("utf-8"))
        except OSError:
            pass  # the quarantined entry itself is what matters
        return True

    def maybe_clean_tmp(self, path: str, now: Optional[float] = None) -> bool:
        """Remove an orphaned ``*.tmp`` file past its grace period.

        Returns True only when the file was actually removed.  A young
        temp file is assumed to be a live publisher's in-flight
        ``atomic_write_bytes`` (write finished, rename pending) and is
        left alone — that age gate is what lets a scrub pass race a
        live publisher without eating its work.
        """
        if now is None:
            now = time.time()
        try:
            if now - os.path.getmtime(path) > self.tmp_grace:
                current_vfs().unlink(path)
                return True
        except OSError:
            pass  # in-flight write or already gone
        return False

    def scrub(self) -> ScrubReport:
        """One full pass; never raises on damaged files."""
        report = ScrubReport()
        try:
            names = sorted(os.listdir(self.corpus_dir))
        except OSError:
            return report
        now = time.time()
        for name in names:
            path = os.path.join(self.corpus_dir, name)
            if name.endswith(".tmp"):
                if self.maybe_clean_tmp(path, now):
                    report.cleaned_tmp += 1
                continue
            if not name.endswith(self.suffix):
                continue
            report.scanned += 1
            reason = self.verify_file(path)
            if reason is None:
                report.healthy += 1
                continue
            report.reasons[name] = reason
            if self.quarantine(path, reason):
                report.quarantined += 1
            else:
                report.claimed_elsewhere += 1
        return report


# ----------------------------------------------------------------------
# Crash-triage bundles (the fork server's crashes/ directory analogue)
# ----------------------------------------------------------------------
_TRIAGE_INPUT = "input.bin"
_TRIAGE_IMAGE = "image.pmimg"
_TRIAGE_META = "meta.json"


@dataclass
class TriageBundle:
    """One on-disk reproduction kit for a worker death.

    Everything needed to replay the execution that killed (or hung) an
    isolation worker: the raw input bytes, the serialized input PM
    image, and a JSON metadata record (reason, decoded exit status,
    campaign provenance, execution kwargs).
    """

    path: str
    data: bytes
    image_bytes: bytes
    meta: dict


class TriageStore:
    """Directory of crash-triage bundles written by the fork backend.

    Each bundle is one subdirectory ``NNNN-<reason>/`` holding the test
    case (``input.bin``), its input image (``image.pmimg``), and
    ``meta.json``.  Bundles are append-only and self-describing, so
    ``python -m repro triage --replay <bundle>`` can rebuild the
    workload and re-execute the kill without the original checkpoint.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        best = -1
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            head = name.split("-", 1)[0]
            if head.isdigit():
                best = max(best, int(head))
        return best + 1

    def write_bundle(self, reason: str, data: bytes, image_bytes: bytes,
                     meta: Optional[dict] = None) -> str:
        """Persist one bundle; returns its directory path."""
        os.makedirs(self.root, exist_ok=True)
        slug = "".join(c if c.isalnum() else "-" for c in reason) or "unknown"
        path = os.path.join(self.root, f"{self._next_seq():04d}-{slug}")
        os.makedirs(path, exist_ok=True)
        record = dict(meta or {})
        record.setdefault("reason", reason)
        record.setdefault("written_at", time.time())
        with open(os.path.join(path, _TRIAGE_INPUT), "wb") as fh:
            fh.write(bytes(data))
        with open(os.path.join(path, _TRIAGE_IMAGE), "wb") as fh:
            fh.write(bytes(image_bytes))
        with open(os.path.join(path, _TRIAGE_META), "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        return path

    def list_bundles(self) -> List[str]:
        """Bundle directories, oldest first."""
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        return [os.path.join(self.root, n) for n in names
                if os.path.isfile(os.path.join(self.root, n, _TRIAGE_META))]

    @staticmethod
    def load_bundle(path: str) -> TriageBundle:
        """Read one bundle back for replay."""
        with open(os.path.join(path, _TRIAGE_META), encoding="utf-8") as fh:
            meta = json.load(fh)
        with open(os.path.join(path, _TRIAGE_INPUT), "rb") as fh:
            data = fh.read()
        with open(os.path.join(path, _TRIAGE_IMAGE), "rb") as fh:
            image_bytes = fh.read()
        return TriageBundle(path=path, data=data, image_bytes=image_bytes,
                            meta=meta)
