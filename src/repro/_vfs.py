"""The filesystem-operation seam every durable protocol writes through.

Each of this repo's durable stores — campaign checkpoints, the
scrubber's quarantine, the trace sinks — ultimately commits state with
a handful of primitive filesystem mutations: write bytes, fsync,
rename/replace, hardlink, unlink, directory fsync.  This module names
those primitives once, behind a process-global *VFS* object, so that:

* production code calls one audited implementation (:class:`OsVFS`,
  a thin veneer over ``os``/``open``), and
* the durability auditor (:mod:`repro.audit`) can interpose a tracing
  implementation that records the exact ordered mutation stream a
  protocol performs — the input to systematic crash-state enumeration —
  without monkeypatching ``os`` or changing any call site.

The seam is deliberately tiny and synchronous.  Installing a VFS swaps
a single module-level reference; the default is :data:`OS_VFS` and the
hot paths pay one attribute load over calling ``os`` directly.
"""

from __future__ import annotations

import os
from typing import Optional


class OsVFS:
    """The real filesystem: each primitive maps to one libc-level op.

    The primitives are intentionally *finer-grained* than convenience
    helpers like ``atomic_write_bytes``: crash-state enumeration needs
    to cut between a write and its fsync, or between a rename and the
    parent-directory fsync that makes it durable, so each of those is
    its own call through the seam.
    """

    name = "os"

    # -- file content --------------------------------------------------
    def write_bytes(self, path: str, data: bytes) -> None:
        """Create (or truncate) ``path`` and write ``data`` (no fsync)."""
        with open(path, "wb") as fh:
            fh.write(data)
            fh.flush()

    def append_bytes(self, path: str, data: bytes) -> None:
        """Append ``data`` to ``path``, creating it if absent (no fsync)."""
        with open(path, "ab") as fh:
            fh.write(data)
            fh.flush()

    def fsync(self, path: str) -> None:
        """Force ``path``'s *content* to stable storage."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- namespace ops -------------------------------------------------
    def replace(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` over ``dst`` (``os.replace``)."""
        os.replace(src, dst)

    def rename(self, src: str, dst: str) -> None:
        """Rename without overwrite semantics (``os.rename``)."""
        os.rename(src, dst)

    def link(self, src: str, dst: str) -> None:
        """Hardlink ``src`` at ``dst`` (``os.link``)."""
        os.link(src, dst)

    def unlink(self, path: str) -> None:
        """Remove one directory entry (``os.remove``)."""
        os.remove(path)

    def mkdir(self, path: str) -> None:
        """``os.makedirs(path, exist_ok=True)``."""
        os.makedirs(path, exist_ok=True)

    def fsync_dir(self, path: str) -> bool:
        """Force ``path``'s *directory entries* to stable storage.

        Best effort: returns False on platforms whose directories
        cannot be opened (the rename stays atomic either way; only its
        crash-durability ordering weakens).
        """
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return False
        try:
            os.fsync(fd)
        except OSError:
            return False
        finally:
            os.close(fd)
        return True


#: The default (and usually only) VFS.
OS_VFS = OsVFS()

#: Process-global active VFS.  Swapped only by the durability auditor.
_current: OsVFS = OS_VFS


def current_vfs() -> OsVFS:
    """The VFS all durable protocols are writing through right now."""
    return _current


def install_vfs(vfs: Optional[OsVFS]):
    """Install ``vfs`` (None restores :data:`OS_VFS`); returns the old one.

    The auditor brackets each traced protocol run with
    ``old = install_vfs(tracer)`` / ``install_vfs(old)``; production
    code never calls this.
    """
    global _current
    old = _current
    _current = vfs if vfs is not None else OS_VFS
    return old
