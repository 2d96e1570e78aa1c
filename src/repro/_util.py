"""Small shared utilities: stable hashing, formatting, crash-safe blobs.

Python's built-in ``hash()`` is salted per process, which would break the
paper's derandomization requirement (Section 4.4): identical inputs must
produce identical coverage maps and image hashes across runs.  Everything
here is deterministic.  The checksummed-container and atomic-write
helpers at the end are what campaign checkpoints are written with.
"""

from __future__ import annotations

import hashlib
import os
import zlib


def stable_hash32(text: str) -> int:
    """Return a deterministic 32-bit hash of ``text``."""
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def stable_hash16(text: str) -> int:
    """Return a deterministic 16-bit hash of ``text``.

    Used to assign PM-operation call-site IDs, mirroring the compile-time
    random IDs AFL-style instrumentation assigns to basic blocks.
    """
    h = stable_hash32(text)
    return (h ^ (h >> 16)) & 0xFFFF


def sha256_hex(data: bytes) -> str:
    """Return the SHA-256 hex digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return (value + alignment - 1) // alignment * alignment


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return value - (value % alignment)


def format_duration(virtual_seconds: float) -> str:
    """Format virtual seconds as the paper's H:MM axis labels."""
    total_minutes = int(virtual_seconds // 60)
    return f"{total_minutes // 60}:{total_minutes % 60:02d}"


# ----------------------------------------------------------------------
# Crash-safe on-disk blobs
#
# Every durable artifact the fuzzer writes — campaign checkpoints and
# their .prev rotation — uses the same two disciplines: a checksummed
# container (magic + SHA-256 + payload) so damage is *detected*, and
# write-tmp + fsync + rename so damage from a kill mid-write is
# *impossible* (the classic protocol the PM programs under test are
# being fuzzed for).
# ----------------------------------------------------------------------
_DIGEST_LEN = 64  # sha256 hex digest length


def pack_checksummed(magic: bytes, blob: bytes) -> bytes:
    """Wrap ``blob`` as ``magic + sha256hex + "\\n" + blob``."""
    digest = hashlib.sha256(blob).hexdigest().encode("ascii")
    return magic + digest + b"\n" + blob


def unpack_checksummed(magic: bytes, data: bytes, what: str = "blob") -> bytes:
    """Verify and unwrap a :func:`pack_checksummed` container.

    Raises :class:`ValueError` (with a human-readable reason) on a bad
    magic, a damaged header, or a checksum mismatch — the caller decides
    whether that means "quarantine the file" or "abort the resume".
    """
    if not data.startswith(magic):
        raise ValueError(f"{what} has wrong magic (not this container type)")
    body = data[len(magic):]
    newline = body.find(b"\n")
    if newline != _DIGEST_LEN:
        raise ValueError(f"{what} header is damaged")
    digest, blob = body[:newline], body[newline + 1:]
    if hashlib.sha256(blob).hexdigest().encode("ascii") != digest:
        raise ValueError(
            f"{what} failed checksum verification (truncated or corrupted)")
    return blob


def atomic_write_bytes(path: str, data: bytes, fsync: bool = True) -> None:
    """Atomically publish ``data`` at ``path`` (write-tmp+fsync+rename).

    A kill at any point leaves either the old file or the new one, never
    a torn file.  The temp file lives in the target directory so the
    rename never crosses filesystems.  All mutations go through the
    process VFS seam (:mod:`repro._vfs`) so the durability auditor can
    record and crash-test the exact operation order.
    """
    from repro._vfs import current_vfs

    vfs = current_vfs()
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, os.path.basename(path) + ".tmp")
    vfs.write_bytes(tmp_path, data)
    if not fsync:
        vfs.replace(tmp_path, path)
        return
    vfs.fsync(tmp_path)
    replace_durable(tmp_path, path)


def replace_durable(src: str, dst: str) -> None:
    """``os.replace`` followed by a parent-directory fsync.

    The rename itself is atomic in the *live* namespace, but after a
    crash it is durable only once the directory entry reaches stable
    storage — a bare ``os.replace`` leaves a window where later,
    durable operations are on disk while the rename is not (the
    ordering-bug class the durability auditor enumerates).  Every
    crash-critical same-directory rename in the repo routes through
    here.  When ``src`` and ``dst`` have different parents both are
    fsynced (destination first, so the new name can never be the one
    that is lost).
    """
    from repro._vfs import current_vfs

    vfs = current_vfs()
    vfs.replace(src, dst)
    dst_dir = os.path.dirname(os.path.abspath(dst))
    src_dir = os.path.dirname(os.path.abspath(src))
    vfs.fsync_dir(dst_dir)
    if src_dir != dst_dir:
        vfs.fsync_dir(src_dir)
