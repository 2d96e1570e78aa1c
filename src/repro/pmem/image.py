"""PM image files: the persistent state a PM program takes as input.

A PM image is the reproduction's analogue of a PMDK pool file in a DAX
file system.  It carries a small header (magic, version, layout name,
UUID, payload checksum policy) followed by the raw payload bytes that the
:class:`~repro.pmem.persistence.PersistenceDomain` operates on.

Two paper requirements shape this module:

* **Validity checking** — ``pmemobj_open`` on a corrupt file aborts
  immediately.  The check happens where bytes enter:
  :meth:`PMImage.from_bytes` verifies magic, size and checksum, so a
  randomly mutated image (AFL++ w/ ImgFuzz) almost always fails there
  and the execution explores no useful path (Figure 5a).  Every
  in-memory image was built from checked bytes or by the pool itself;
  at open time :meth:`PMImage.validate` checks only what can still be
  wrong with it — the layout name and the header fields a caller may
  have reassigned.
* **Derandomized UUIDs** — PMDK assigns each pool a random UUID, which
  PMFuzz overrides with a constant so identical inputs produce identical
  images (Section 4.4).  Here the UUID is derived deterministically from
  the layout name.

Images serialize with ``zlib`` (an LZ77 implementation), reproducing the
test-case storage optimization of Section 4.7.  :meth:`PMImage.deflated`
is the one definition of the compressed form; ``to_bytes(compress=True)``
and the image store (:mod:`repro.core.dedup`) both go through it.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro._util import stable_hash32
from repro.errors import InvalidImageError

#: Bytes reserved for the image header at the front of the serialized form.
IMAGE_HEADER_SIZE = 64

_MAGIC = b"PMFZIMG1"
_LAYOUT_BYTES = 24
_HEADER_FMT = "<8s%dsI16sI8x" % _LAYOUT_BYTES  # magic, layout, size, uuid, cksum, pad
assert struct.calcsize(_HEADER_FMT) == IMAGE_HEADER_SIZE


def derive_uuid(layout: str) -> bytes:
    """Derive the constant, layout-specific 16-byte pool UUID.

    This reproduces PMFuzz's overloading of PMDK's UUID assignment with a
    constant value: two images created for the same layout always compare
    equal byte-for-byte if their payloads match.
    """
    seed = stable_hash32("pmfuzz-uuid:" + layout)
    return struct.pack("<IIII", seed, seed ^ 0xA5A5A5A5, ~seed & 0xFFFFFFFF, 0x504D465A)


@dataclass
class PMImage:
    """An in-memory PM image: header metadata + payload bytes.

    Attributes:
        layout: layout name (must match at open time, like PMDK).
        payload: the pool contents the persistence domain runs over.
        uuid: 16-byte pool identifier (constant per layout).
    """

    layout: str
    payload: bytearray
    uuid: bytes = field(default=b"")

    def __post_init__(self) -> None:
        if not self.uuid:
            self.uuid = derive_uuid(self.layout)
        self._check_fields()

    def _check_fields(self) -> None:
        if len(self.uuid) != 16:
            raise InvalidImageError(f"uuid must be 16 bytes, got {len(self.uuid)}")
        if len(self.layout.encode("utf-8")) > _LAYOUT_BYTES:
            raise InvalidImageError(f"layout name too long: {self.layout!r}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, layout: str, size: int) -> "PMImage":
        """Create an empty (all-zero) image with a ``size``-byte payload."""
        if size <= 0:
            raise InvalidImageError(f"image size must be positive, got {size}")
        return cls(layout=layout, payload=bytearray(size))

    def copy(self) -> "PMImage":
        """Return a deep copy whose payload shares no buffer with this one.

        Execution never mutates its input image (the persistence domain
        works on its own copy of the payload); this is for callers that
        edit payload bytes in place and must leave the original intact.
        """
        return PMImage(layout=self.layout, payload=bytearray(self.payload), uuid=self.uuid)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _header(self) -> bytes:
        """The serialized header, with the CRC-32 of the payload buffer."""
        return struct.pack(
            _HEADER_FMT,
            _MAGIC,
            self.layout.encode("utf-8").ljust(_LAYOUT_BYTES, b"\0"),
            len(self.payload),
            self.uuid,
            zlib.crc32(self.payload),
        )

    def to_bytes(self, compress: bool = False) -> bytes:
        """Serialize header + payload; optionally zlib/LZ77-compress."""
        if compress:
            return b"PMFZ" + self.deflated()
        return self._header() + self.payload

    def deflated(self) -> bytes:
        """``to_bytes()`` LZ77-compressed as one standard zlib stream.

        The header and then the payload buffer are fed to a single
        compressor, so the serialized copy is never built.  ``Z_RLE``
        restricts deflate's LZ77 matches to distance 1: a PM image is
        mostly zero runs, so it compresses within about 1% of the
        default strategy at half the cost (see :mod:`repro.core.dedup`).
        :func:`zlib.decompress` reads the result.
        """
        compressor = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
        head = compressor.compress(self._header())
        body = compressor.compress(self.payload)
        return head + body + compressor.flush()

    @classmethod
    def from_bytes(cls, data: bytes, expected_layout: Optional[str] = None) -> "PMImage":
        """Deserialize and validate an image.

        Raises:
            InvalidImageError: on bad magic, truncated data, checksum
                mismatch, or (when ``expected_layout`` is given) a layout
                name mismatch — the simulated equivalent of the program
                aborting on an invalid pool file.
        """
        if data[:4] == b"PMFZ" and data[4:8] != _MAGIC[4:8]:
            try:
                data = zlib.decompress(data[4:])
            except zlib.error as exc:
                raise InvalidImageError(f"corrupt compressed image: {exc}") from exc
        if len(data) < IMAGE_HEADER_SIZE:
            raise InvalidImageError(f"image truncated: {len(data)} bytes")
        magic, layout_raw, size, uuid, checksum = struct.unpack(
            _HEADER_FMT, data[:IMAGE_HEADER_SIZE]
        )
        if magic != _MAGIC:
            raise InvalidImageError(f"bad magic {magic!r}")
        payload = data[IMAGE_HEADER_SIZE:]
        if len(payload) != size:
            raise InvalidImageError(
                f"payload size mismatch: header says {size}, got {len(payload)}"
            )
        if zlib.crc32(payload) != checksum:
            raise InvalidImageError("payload checksum mismatch")
        layout = layout_raw.rstrip(b"\0").decode("utf-8", errors="replace")
        if expected_layout is not None and layout != expected_layout:
            raise InvalidImageError(
                f"layout mismatch: image is {layout!r}, expected {expected_layout!r}"
            )
        image = cls(layout=layout, payload=bytearray(payload), uuid=uuid)
        return image

    def validate(self, expected_layout: Optional[str] = None) -> None:
        """Validity check used by the pool-open path.

        Magic, size and checksum describe serialized bytes, and
        :meth:`from_bytes` checks them where bytes enter; for an
        in-memory image they cannot fail.  What can fail is checked
        here, with the messages :meth:`from_bytes` and construction use:
        a uuid or layout reassigned to an invalid value, and (when
        ``expected_layout`` is given) a layout mismatch.

        Raises:
            InvalidImageError: on any of those.
        """
        self._check_fields()
        if expected_layout is not None and self.layout != expected_layout:
            raise InvalidImageError(
                f"layout mismatch: image is {self.layout!r}, expected {expected_layout!r}"
            )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def content_hash(self) -> str:
        """SHA-256 of layout + payload (PMFuzz's image dedup key, Sec. 4.5)."""
        digest = hashlib.sha256(self.layout.encode("utf-8") + b"\0")
        digest.update(self.payload)
        return digest.hexdigest()

    def __len__(self) -> int:
        return len(self.payload)
