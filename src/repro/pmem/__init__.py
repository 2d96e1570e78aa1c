"""Simulated persistent-memory hardware substrate.

This package stands in for the Intel Optane DC Persistent Memory modules
and the x86 persistence primitives (CLWB/SFENCE) used by the paper.  It
models:

* a byte-addressable persistence domain with a volatile cache in front of
  the persistent media (:mod:`repro.pmem.persistence`),
* PM image files with headers, UUIDs and checksums, saved with LZ77/zlib
  compression (:mod:`repro.pmem.image`), and
* crash states — which bytes survive a failure at any given point in
  the execution (:mod:`repro.pmem.crash`).
"""

from repro.pmem.image import IMAGE_HEADER_SIZE, PMImage
from repro.pmem.persistence import (
    CACHE_LINE,
    LineState,
    PersistenceDomain,
    TraceEvent,
    TraceEventKind,
)

__all__ = [
    "CACHE_LINE",
    "IMAGE_HEADER_SIZE",
    "LineState",
    "PMImage",
    "PersistenceDomain",
    "TraceEvent",
    "TraceEventKind",
]
