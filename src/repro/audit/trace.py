"""Filesystem-operation interposition: record what a protocol writes.

:class:`TracingVFS` implements the :mod:`repro._vfs` seam: every
primitive performs the real operation (the protocol under audit runs to
completion against a scratch directory) *and* appends an :class:`FsOp`
to the trace.  Paths are recorded relative to the audit root so the
trace can later be replayed into a fresh copy of the initial tree —
the mechanism :class:`~repro.audit.states.CrashStateEnumerator` uses to
materialize crash states.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from repro._vfs import OsVFS

#: Operation kinds a trace may contain (the seam's primitive set).
OP_KINDS = ("write", "append", "fsync", "replace", "link", "unlink",
            "fsync_dir")

#: Kinds that mutate a directory's *entries* (vs a file's content).
NAMESPACE_KINDS = ("replace", "link", "unlink")


@dataclass(frozen=True)
class FsOp:
    """One recorded filesystem mutation.

    ``path``/``dest`` are audit-root-relative.  ``data`` carries the
    payload of ``write``/``append`` ops so the enumerator can replay
    them (and tear them) into materialized crash states.
    """

    index: int
    kind: str
    path: str
    dest: Optional[str] = None
    data: Optional[bytes] = None

    def describe(self) -> str:
        """One-line human rendering for reports and bundles."""
        if self.kind in ("write", "append"):
            return (f"{self.index:3d} {self.kind}({self.path}, "
                    f"{len(self.data or b'')}B)")
        if self.dest is not None:
            return f"{self.index:3d} {self.kind}({self.path} -> {self.dest})"
        return f"{self.index:3d} {self.kind}({self.path})"

    @property
    def parent(self) -> str:
        """Directory whose entries this op mutates (namespace ops)."""
        return os.path.dirname(self.path)

    @property
    def dest_parent(self) -> Optional[str]:
        return os.path.dirname(self.dest) if self.dest is not None else None


class TracingVFS(OsVFS):
    """Perform-and-record implementation of the VFS seam.

    Only operations on paths under ``root`` are recorded; anything
    outside (there should be nothing — protocols are confined to their
    scratch directory) is performed but left out of the trace.
    """

    name = "tracing"

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.ops: List[FsOp] = []

    # ------------------------------------------------------------------
    def _rel(self, path: str) -> Optional[str]:
        rel = os.path.relpath(os.path.abspath(path), self.root)
        if rel == ".." or rel.startswith(".." + os.sep):
            return None
        return rel

    def _record(self, kind: str, path: str, dest: Optional[str] = None,
                data: Optional[bytes] = None) -> None:
        rel = self._rel(path)
        rel_dest = self._rel(dest) if dest is not None else None
        if rel is None or (dest is not None and rel_dest is None):
            return
        self.ops.append(FsOp(index=len(self.ops), kind=kind, path=rel,
                             dest=rel_dest, data=data))

    # -- seam primitives: perform, then record -------------------------
    def write_bytes(self, path: str, data: bytes) -> None:
        super().write_bytes(path, data)
        self._record("write", path, data=bytes(data))

    def append_bytes(self, path: str, data: bytes) -> None:
        super().append_bytes(path, data)
        self._record("append", path, data=bytes(data))

    def fsync(self, path: str) -> None:
        super().fsync(path)
        self._record("fsync", path)

    def replace(self, src: str, dst: str) -> None:
        super().replace(src, dst)
        self._record("replace", src, dest=dst)

    def link(self, src: str, dst: str) -> None:
        super().link(src, dst)
        self._record("link", src, dest=dst)

    def unlink(self, path: str) -> None:
        super().unlink(path)
        self._record("unlink", path)

    def fsync_dir(self, path: str) -> bool:
        ok = super().fsync_dir(path)
        self._record("fsync_dir", path)
        return ok
