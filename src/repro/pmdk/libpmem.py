"""Low-level PM primitives: the ``libpmem`` analogue.

These functions wrap the persistence-domain operations with (a) PM
operation tracking for the counter-map and (b) synthetic-bug injection
hooks, mirroring how PMFuzz places tracking hints inside the PMDK library
itself (Section 4.2: "an approach similar to Intel's Pmemcheck").

All functions take the :class:`~repro.pmem.persistence.PersistenceDomain`
directly; the object layer (:mod:`repro.pmdk.pool`) forwards to them.

Bug injection: when the active execution context carries an injector, the
flush/fence primitives consult it — a skipped flush or fence at an active
bug site reproduces the paper's "remove/misplace writebacks and fences"
synthetic bugs.
"""

from __future__ import annotations

from typing import Optional

from repro.instrument.branchcov import untraced
from repro.instrument.context import current_context, pm_call_site
from repro.pmem.persistence import PersistenceDomain


def _track(site: Optional[str]) -> str:
    """Resolve the call-site label and record the PM operation."""
    label = site if site is not None else pm_call_site(depth=3)
    ctx = current_context()
    if ctx is not None:
        ctx.record_pm_op(label)
    return label


def _injector():
    ctx = current_context()
    return getattr(ctx, "injector", None) if ctx is not None else None


@untraced
def pmem_read(domain: PersistenceDomain, addr: int, size: int,
              site: Optional[str] = None) -> bytes:
    """Traced PM load."""
    label = _track(site)
    return domain.load(addr, size, site=label)


@untraced
def pmem_write(domain: PersistenceDomain, addr: int, data: bytes,
               site: Optional[str] = None) -> None:
    """Traced PM store (volatile until flushed + fenced)."""
    label = _track(site)
    inj = _injector()
    if inj is not None:
        data = inj.corrupt_store(label, addr, data)
    domain.store(addr, data, site=label)


@untraced
def pmem_flush(domain: PersistenceDomain, addr: int, size: int,
               site: Optional[str] = None) -> None:
    """CLWB analogue: queue cache lines for persistence."""
    label = _track(site)
    inj = _injector()
    if inj is not None and inj.skip_flush(label):
        return
    domain.flush(addr, size, site=label)


@untraced
def pmem_drain(domain: PersistenceDomain, site: Optional[str] = None) -> None:
    """SFENCE analogue: order all flushed lines into the media."""
    label = _track(site)
    inj = _injector()
    if inj is not None and inj.skip_fence(label):
        return
    domain.drain(site=label)


@untraced
def pmem_persist(domain: PersistenceDomain, addr: int, size: int,
                 site: Optional[str] = None) -> None:
    """``pmem_persist``: flush + drain (a full persist barrier).

    Under an injected "remove writeback" bug the flush is skipped but the
    fence still executes, so the target lines simply stay dirty — the
    exact failure mode of a forgotten ``CLWB``.
    """
    label = _track(site)
    inj = _injector()
    if inj is None or not inj.skip_flush(label):
        domain.flush(addr, size, site=label)
    if inj is not None and inj.skip_fence(label):
        return
    domain.drain(site=label)


@untraced
def pmem_memcpy_persist(domain: PersistenceDomain, addr: int, data: bytes,
                        site: Optional[str] = None) -> None:
    """``pmem_memcpy_persist``: store + flush + drain."""
    label = _track(site)
    inj = _injector()
    if inj is not None:
        data = inj.corrupt_store(label, addr, data)
    domain.store(addr, data, site=label)
    if inj is not None and inj.skip_flush(label):
        return
    domain.flush(addr, len(data), site=label)
    if inj is not None and inj.skip_fence(label):
        return
    domain.drain(site=label)


@untraced
def pmem_memcpy_nodrain(domain: PersistenceDomain, addr: int, data: bytes,
                        site: Optional[str] = None) -> None:
    """``pmem_memcpy_nodrain``: store + flush, no fence."""
    label = _track(site)
    domain.store(addr, data, site=label)
    inj = _injector()
    if inj is not None and inj.skip_flush(label):
        return
    domain.flush(addr, len(data), site=label)


@untraced
def pmem_memset_nodrain(domain: PersistenceDomain, addr: int, value: int,
                        size: int, site: Optional[str] = None) -> None:
    """``pmem_memset_nodrain``: memset + flush, no fence (paper Bug 7)."""
    label = _track(site)
    domain.store(addr, bytes([value & 0xFF]) * size, site=label)
    inj = _injector()
    if inj is not None and inj.skip_flush(label):
        return
    domain.flush(addr, size, site=label)


@untraced
def pmem_memset_persist(domain: PersistenceDomain, addr: int, value: int,
                        size: int, site: Optional[str] = None) -> None:
    """``pmem_memset_persist``: memset + flush + drain."""
    label = _track(site)
    domain.store(addr, bytes([value & 0xFF]) * size, site=label)
    inj = _injector()
    if inj is None or not inj.skip_flush(label):
        domain.flush(addr, size, site=label)
    if inj is not None and inj.skip_fence(label):
        return
    domain.drain(site=label)
