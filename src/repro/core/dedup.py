"""PM-image store with SHA-256 deduplication (Section 4.5).

PMFuzz's derandomization guarantees that the same input test case always
produces the same image, so duplicate images can be eliminated by
content hash: "PMFuzz performs image reduction by looking up the image's
hash value (SHA-256) in a dictionary that keeps the hash values of all
prior images."

The store also keeps the raw/compressed byte accounting that the
Section 4.7 storage optimization is about.  Images are stored as
:meth:`~repro.pmem.image.PMImage.deflated` streams: zlib's deflate with
the ``Z_RLE`` strategy, which limits LZ77 matches to distance 1.  A PM image
is a few dozen written cache lines in a sea of zeroes, so run-length
matches find nearly everything the default strategy does.  On the 139
new images of a 1-vsec ``hashmap_tx`` campaign, ``Z_RLE`` reaches a
raw/stored ratio of 537 against 535 for the default strategy at level
6, in 0.76 ms per image instead of 1.64 ms; on the Section 4.7 benchmark
campaign it reaches 496 against 502.  The output is a standard zlib
stream, so blobs written with plain ``zlib.compress`` (older
checkpoints) still decompress.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

from repro.errors import (CorpusCorruptionError, InvalidImageError,
                          StorageFaultError)
from repro.pmem.image import IMAGE_HEADER_SIZE, PMImage


class ImageStore:
    """Content-addressed store of PM images for one campaign.

    Args:
        compress: keep serialized images zlib/LZ77-compressed (the
            Section 4.7 SysOpt storage behaviour).  When False, images
            are kept raw, as the unoptimized configuration would.
        env_faults: optional
            :class:`~repro.resilience.faults.EnvFaultInjector` consulted
            at the ``storage-save`` / ``storage-load`` /
            ``storage-corrupt`` / ``decompress`` fault sites (the SSD
            tier failing under campaign pressure).
    """

    def __init__(self, compress: bool = True, env_faults=None) -> None:
        self.compress = compress
        self.env_faults = env_faults
        self._by_hash: Dict[str, bytes] = {}
        self.raw_bytes = 0
        self.stored_bytes = 0
        self.duplicates_rejected = 0
        #: image_id -> reason, for entries whose *stored* bytes turned
        #: out damaged (removed from the live store, never served again).
        self._quarantined: Dict[str, str] = {}
        self.corrupt_quarantined = 0

    def __len__(self) -> int:
        return len(self._by_hash)

    def put(self, image: PMImage) -> Tuple[str, bool]:
        """Store an image; returns ``(image_id, is_new)``.

        ``image_id`` is the SHA-256 content hash.  A duplicate image is
        rejected (``is_new=False``) and costs nothing.
        """
        if self.env_faults is not None:
            self.env_faults.check("storage-save")
            self.env_faults.check("disk-full")
        image_id = image.content_hash()
        if image_id in self._by_hash:
            self.duplicates_rejected += 1
            return image_id, False
        self.raw_bytes += IMAGE_HEADER_SIZE + len(image.payload)
        stored = image.deflated() if self.compress else image.to_bytes()
        self._by_hash[image_id] = stored
        self.stored_bytes += len(stored)
        return image_id, True

    def get(self, image_id: str) -> PMImage:
        """Materialize an image by ID (decompressing if needed).

        Failure classification is two-tier:

        * a *torn read* — the injected read-path corruption of
          :meth:`EnvFaultInjector.filter_bytes`, where the stored bytes
          are intact and only this read observed garbage — raises a
          transient :class:`~repro.errors.StorageFaultError` for the
          supervisor to retry;
        * *genuine damage* — the stored bytes themselves fail to
          decompress or validate, which no retry can fix — quarantines
          the entry (removed from the live store, counted) and raises
          the non-transient :class:`~repro.errors.CorpusCorruptionError`
          so a single bad file costs one test case, never the campaign.
        """
        faults = self.env_faults
        if faults is not None:
            faults.check("storage-load")
        stored = self._by_hash.get(image_id)
        if stored is None:
            reason = self._quarantined.get(image_id)
            raise CorpusCorruptionError(
                f"image {image_id[:12]}... is "
                + (f"quarantined ({reason})" if reason else "not in the store"),
                entry=image_id)
        read_back = stored
        if faults is not None:
            read_back = faults.filter_bytes("storage-corrupt", stored)
        torn_read = read_back is not stored
        if self.compress:
            if faults is not None:
                faults.check("decompress")
            try:
                read_back = zlib.decompress(read_back)
            except zlib.error as exc:
                if torn_read:
                    raise StorageFaultError(
                        f"decompression failed for {image_id[:12]}...: {exc}",
                        site="decompress", transient=True) from exc
                raise self._quarantine(
                    image_id, f"stored bytes do not decompress: {exc}") \
                    from exc
        try:
            return PMImage.from_bytes(read_back)
        except InvalidImageError as exc:
            if torn_read:
                raise StorageFaultError(
                    f"stored image {image_id[:12]}... read back corrupt: "
                    f"{exc}", site="storage-corrupt", transient=True) from exc
            raise self._quarantine(
                image_id, f"stored bytes fail validation: {exc}") from exc

    def _quarantine(self, image_id: str, reason: str) -> CorpusCorruptionError:
        """Retire a genuinely-damaged entry; returns the error to raise.

        The byte counters are cumulative-ingest accounting (what the
        campaign generated) and deliberately stay untouched.
        """
        if self._by_hash.pop(image_id, None) is not None:
            self._quarantined[image_id] = reason
            self.corrupt_quarantined += 1
        return CorpusCorruptionError(
            f"image {image_id[:12]}... quarantined: {reason}",
            entry=image_id)

    def raw_serialized(self, image_id: str) -> Optional[bytes]:
        """Serialized (decompressed) bytes of a stored image, or None.

        Bypasses the environment-fault sites: the engine reads its own
        in-memory store here to plan a fork-worker batch ahead of the
        round's executions, which is not a modeled SSD access, so it
        must not perturb the deterministic fault stream.
        """
        stored = self._by_hash.get(image_id)
        if stored is None:
            return None
        return zlib.decompress(stored) if self.compress else stored

    def contains(self, image_id: str) -> bool:
        return image_id in self._by_hash

    def maybe_get(self, image_id: str) -> Optional[PMImage]:
        """Like :meth:`get` but None for unknown IDs."""
        if image_id not in self._by_hash:
            return None
        return self.get(image_id)

    @property
    def compression_ratio(self) -> float:
        """raw / stored byte ratio (1.0 when compression is off)."""
        if self.stored_bytes == 0:
            return 1.0
        return self.raw_bytes / self.stored_bytes
