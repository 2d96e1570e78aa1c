"""Length-prefixed pipe frames for the fork-server worker protocol.

The parent and each worker speak a strict request/response protocol over
a pair of anonymous pipes: every message is one *frame* — a 4-byte
little-endian length followed by a pickled payload.  Pickle is safe here
in the way it never is across a trust boundary: both ends of the pipe
are the same process image (the worker is forked from the campaign), so
the bytes on the wire are self-to-self.

These two functions are the whole transport: the pool and each worker
call them directly on their fd pair.  A frame is only ever delivered
whole — a writer that dies mid-frame leaves the reader short of the
announced length, and the EOF that follows raises :class:`PipeClosed`,
which the pool turns into a typed worker death, never a torn reply.

Reads take an optional absolute deadline (``time.monotonic`` domain);
this is the mechanism the parent's wall-clock watchdog is built on — a
worker that stops producing bytes past the deadline raises
:class:`FrameDeadline` and gets SIGKILLed by the pool.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import time
from typing import Any, Optional

_LEN = struct.Struct("<I")

#: Sanity ceiling on one frame (a whole PM image fits in a few MB).
MAX_FRAME_BYTES = 1 << 30


class ProtocolError(Exception):
    """The byte stream violated the framing protocol."""


class PipeClosed(ProtocolError):
    """EOF mid-frame: the peer is gone (worker death / parent exit)."""


class FrameDeadline(ProtocolError):
    """The absolute deadline expired before a complete frame arrived."""


def write_frame(fd: int, obj: Any) -> None:
    """Pickle ``obj`` and write it as one length-prefixed frame."""
    blob = pickle.dumps(obj, protocol=4)
    if len(blob) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(blob)} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte ceiling")
    _write_all(fd, _LEN.pack(len(blob)) + blob)


def read_frame(fd: int, deadline: Optional[float] = None) -> Any:
    """Read one frame; blocks, or honors an absolute monotonic deadline.

    Raises:
        PipeClosed: EOF before a complete frame.
        FrameDeadline: ``deadline`` passed with the frame incomplete.
        ProtocolError: an impossible length prefix or undecodable payload.
    """
    (length,) = _LEN.unpack(_read_exact(fd, _LEN.size, deadline))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame header announces {length} bytes")
    blob = _read_exact(fd, length, deadline)
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise ProtocolError(f"frame payload does not unpickle: {exc}") \
            from exc


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, n: int, deadline: Optional[float]) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise FrameDeadline(f"deadline expired with {n - len(buf)} "
                                    "bytes outstanding")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue  # loop re-checks the deadline
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            raise PipeClosed(f"EOF with {n - len(buf)} bytes outstanding")
        buf += chunk
    return bytes(buf)
