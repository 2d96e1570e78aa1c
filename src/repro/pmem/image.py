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

An image has two serialized forms:

* the *dense* form, :meth:`PMImage.to_bytes` — header + payload, the
  bytes AFL++ w/ ImgFuzz mutates, triage bundles hold and the store
  keeps without SysOpt;
* the *sparse record* — layout, uuid, payload size, the sorted indices
  of the payload's non-zero 64-byte cache lines, those lines' bytes and
  a CRC-32 of the record.  :meth:`PMImage.deflated` compresses it as
  one ``zlib`` (LZ77) stream, the test-case storage optimization of
  Section 4.7 (:mod:`repro.core.dedup`).  A stored image holds a few
  dozen written lines out of 4,096, so the record is about 1.5 KiB
  before compression and the compressor never reads the zero runs.
  Pickling an image (fork-server job frames, checkpoints) ships the
  same record.

:meth:`PMImage.from_bytes` reads the dense form and
:meth:`PMImage.from_record` the inflated sparse record; nothing writes
any other form.  :meth:`PMImage.content_hash` hashes layout + dense
payload: image IDs do not depend on the stored form.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro._util import stable_hash32
from repro.errors import InvalidImageError

#: Bytes reserved for the image header at the front of the serialized form.
IMAGE_HEADER_SIZE = 64

_MAGIC = b"PMFZIMG1"
_LAYOUT_BYTES = 24
_HEADER_FMT = "<8s%dsI16sI8x" % _LAYOUT_BYTES  # magic, layout, size, uuid, cksum, pad
assert struct.calcsize(_HEADER_FMT) == IMAGE_HEADER_SIZE

#: Cache-line granularity of the sparse record.
_LINE = 64
_SPARSE_MAGIC = b"PMLINES1"
# magic, layout, payload size, uuid, line count, CRC-32 of the rest.
_SPARSE_FMT = "<8s%dsI16sII" % _LAYOUT_BYTES
_SPARSE_HEAD = struct.calcsize(_SPARSE_FMT)
_ZEROS = bytes(4096)


def derive_uuid(layout: str) -> bytes:
    """Derive the constant, layout-specific 16-byte pool UUID.

    This reproduces PMFuzz's overloading of PMDK's UUID assignment with a
    constant value: two images created for the same layout always compare
    equal byte-for-byte if their payloads match.
    """
    seed = stable_hash32("pmfuzz-uuid:" + layout)
    return struct.pack("<IIII", seed, seed ^ 0xA5A5A5A5, ~seed & 0xFFFFFFFF, 0x504D465A)


def _nonzero_lines(payload: bytearray) -> Tuple[List[int], List[bytes]]:
    """Indices and bytes of the payload's non-zero 64-byte lines.

    Narrows 4 KiB → 512 B → 64 B, each level a slice compared against a
    zero buffer, so an all-zero page costs one ``memcmp``.  A last line
    shorter than 64 bytes is returned zero-padded to full length.
    """
    indices: List[int] = []
    lines: List[bytes] = []
    for page in range(0, len(payload), 4096):
        chunk = payload[page:page + 4096]
        if chunk == _ZEROS[:len(chunk)]:
            continue
        for block in range(0, len(chunk), 512):
            sub = chunk[block:block + 512]
            if sub == _ZEROS[:len(sub)]:
                continue
            for off in range(block, block + len(sub), _LINE):
                line = chunk[off:off + _LINE]
                if line != _ZEROS[:len(line)]:
                    indices.append((page + off) // _LINE)
                    lines.append(line)
    if lines and len(lines[-1]) < _LINE:
        lines[-1] = lines[-1].ljust(_LINE, b"\0")
    return indices, lines


def _from_record(record: bytes) -> "PMImage":
    """Unpickle an image from its sparse record (see ``__reduce__``)."""
    return PMImage.from_record(record)


def _parse_record(record: bytes) -> Tuple[str, bytearray, bytes]:
    """``(layout, payload, uuid)`` of a sparse record.

    Raises:
        InvalidImageError: on bad magic, a truncated record or line
            table, a CRC mismatch, line indices that are out of range,
            unsorted or repeated, or non-zero bytes past the payload
            size.
    """
    if len(record) < _SPARSE_HEAD:
        raise InvalidImageError(f"sparse image truncated: {len(record)} bytes")
    magic, layout_raw, size, uuid, count, checksum = struct.unpack(
        _SPARSE_FMT, record[:_SPARSE_HEAD])
    if magic != _SPARSE_MAGIC:
        raise InvalidImageError(f"bad sparse record magic {magic!r}")
    if zlib.crc32(record[_SPARSE_HEAD:],
                  zlib.crc32(record[:_SPARSE_HEAD - 4])) != checksum:
        raise InvalidImageError("sparse image checksum mismatch")
    body = len(record) - _SPARSE_HEAD
    if body < 4 * count:
        raise InvalidImageError(
            f"line table truncated: {count} lines need {4 * count} "
            f"bytes, got {body}")
    if body != (4 + _LINE) * count:
        raise InvalidImageError(
            f"line data size mismatch: {count} lines need "
            f"{_LINE * count} bytes, got {body - 4 * count}")
    table_end = _SPARSE_HEAD + 4 * count
    indices = struct.unpack("<%dI" % count, record[_SPARSE_HEAD:table_end])
    total = -(-size // _LINE)
    if count and indices[-1] >= total:
        raise InvalidImageError(
            f"line index {indices[-1]} out of range for a {size}-byte "
            f"payload")
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise InvalidImageError("line indices not strictly increasing")
    payload = bytearray(total * _LINE)
    at = table_end
    for index in indices:
        start = index * _LINE
        payload[start:start + _LINE] = record[at:at + _LINE]
        at += _LINE
    if payload[size:] != _ZEROS[:len(payload) - size]:
        raise InvalidImageError(
            f"payload size mismatch: non-zero bytes past size {size}")
    del payload[size:]
    layout = layout_raw.rstrip(b"\0").decode("utf-8", errors="replace")
    return layout, payload, uuid


def _parse_dense(data: bytes) -> Tuple[str, bytearray, bytes]:
    """``(layout, payload, uuid)`` of the dense ``to_bytes()`` form."""
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
    return layout, bytearray(payload), uuid


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

    def to_bytes(self) -> bytes:
        """Serialize to the dense form: header + payload."""
        return self._header() + self.payload

    def deflated(self) -> bytes:
        """The sparse record of this image as one zlib stream.

        The record is the header fields, the sorted table of non-zero
        line indices, those lines and a CRC-32 of the record; the zero
        lines are implicit, so neither the scan's output nor the
        compressor ever touches them.  :meth:`from_record` reads the
        record back once :func:`zlib.decompress` has inflated it.
        """
        return zlib.compress(self._record(), 6)

    def _record(self) -> bytes:
        """The uncompressed sparse record (see the module docstring)."""
        indices, lines = _nonzero_lines(self.payload)
        head = struct.pack(
            _SPARSE_FMT[:-1],  # every field but the trailing CRC
            _SPARSE_MAGIC,
            self.layout.encode("utf-8").ljust(_LAYOUT_BYTES, b"\0"),
            len(self.payload),
            self.uuid,
            len(indices),
        )
        body = struct.pack("<%dI" % len(indices), *indices) + b"".join(lines)
        return head + struct.pack("<I", zlib.crc32(body, zlib.crc32(head))) \
            + body

    def __reduce__(self):
        # Pickle (fork job frames, checkpoints) ships the sparse record,
        # not the dense payload.  Pickles of the default form, written
        # before this method existed, still load through the default
        # protocol.
        return _from_record, (self._record(),)

    @classmethod
    def from_record(cls, record: bytes) -> "PMImage":
        """Deserialize and validate an inflated sparse record.

        Raises:
            InvalidImageError: on a malformed record (see
                :func:`_parse_record`).
        """
        return cls(*_parse_record(record))

    @classmethod
    def from_bytes(cls, data: bytes, expected_layout: Optional[str] = None) -> "PMImage":
        """Deserialize and validate the dense header + payload form.

        Raises:
            InvalidImageError: on bad magic, truncated data, checksum
                mismatch, or (when ``expected_layout`` is given) a
                layout name mismatch — the simulated equivalent of the
                program aborting on an invalid pool file.
        """
        layout, payload, uuid = _parse_dense(data)
        if expected_layout is not None and layout != expected_layout:
            raise InvalidImageError(
                f"layout mismatch: image is {layout!r}, expected {expected_layout!r}"
            )
        return cls(layout=layout, payload=payload, uuid=uuid)

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
