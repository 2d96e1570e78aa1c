"""PMDK-like persistent memory programming library (simulated).

This package reimplements, in Python and against the simulated
persistence domain, the slice of Intel PMDK that the paper's workloads
use:

* :mod:`repro.pmdk.libpmem` — low-level primitives: ``pmem_persist``,
  ``pmem_flush``, ``pmem_drain``, ``pmem_memcpy_persist``,
  ``pmem_memset_nodrain`` (the ``CLWB``/``SFENCE`` wrappers).
* :mod:`repro.pmdk.layout` — typed persistent structs (the analogue of
  C structs accessed through ``D_RO``/``D_RW``).
* :mod:`repro.pmdk.heap` — a persistent heap allocator (``pmemobj_alloc``).
* :mod:`repro.pmdk.rangetree` — the logged-range tree PMDK uses to skip
  duplicate undo-log entries (Section 6 of the paper).
* :mod:`repro.pmdk.tx` — undo-log transactions: ``TX_BEGIN``/``TX_END``,
  ``TX_ADD``, ``TX_ALLOC``/``TX_ZNEW``, commit, abort and recovery.
* :mod:`repro.pmdk.pool` — ``pmemobj_create``/``pmemobj_open``, header
  validation, the root object, and crash recovery at open.
* :mod:`repro.pmdk.inject` — the synthetic bugs planted in the library
  (skipped flushes, fences and TX_ADDs, corrupted stores).

Every function that performs a PM operation records a PM-operation
call-site ID with the active instrumentation context, which is how the
PMFuzz counter-map (Algorithm 1) observes the execution.

Like the libraries linked into an AFL++ target, this package is not
branch-instrumented.  The entry points that workload code calls are
wrapped in :func:`~repro.instrument.branchcov.untraced`, so under the
``settrace`` recorder they run with the hook lifted; none of them calls
back into workload code.  Calls inside the library go to the undecorated
implementations where they are hot (the struct views use
``PmemObjPool._read``/``_write``).
"""

from repro.pmdk.heap import ALLOC_HEADER_SIZE
from repro.pmdk.layout import (
    Array,
    F64,
    I64,
    OID,
    PStruct,
    U8,
    U16,
    U32,
    U64,
    Bytes,
)
from repro.pmdk.pool import OID_NULL, PmemObjPool
from repro.pmdk.rangetree import RangeTree
from repro.pmdk.tx import Transaction

__all__ = [
    "ALLOC_HEADER_SIZE",
    "Array",
    "Bytes",
    "F64",
    "I64",
    "OID",
    "OID_NULL",
    "PStruct",
    "PmemObjPool",
    "RangeTree",
    "Transaction",
    "U8",
    "U16",
    "U32",
    "U64",
]
