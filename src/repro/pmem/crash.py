"""Crash states: which bytes survive a failure.

When a PM program fails, the persistent state that survives depends on
which cache lines had reached the media:

* **strict** — only data persisted by an explicit flush + fence
  survives.  This is the guaranteed state and is what PMFuzz's
  crash-image generator uses (failures placed at ordering points,
  Section 3.2), harvested from one execution under a
  :class:`SnapshotPlan`.
* **eviction** — some subset of pending (dirty or flushed-unfenced)
  lines additionally reached the media via cache eviction.  Real
  hardware may produce any of these states; the XFDetector-like checker
  uses them to reason about whether a recovery path could observe
  unordered data.

The eviction sample is defined once, by :func:`eviction_states` over
(media, pending-line overlays): a crashed run (``Workload._weak_images``)
and a single-pass snapshot taken with ``SnapshotPlan(weak_states=True)``
both build their weak states from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Tuple

from repro.pmem.persistence import CACHE_LINE

#: Cap on the eviction states judged per crash point — the same cap as
#: the ``max_weak_states`` default of ``Workload.run``.
MAX_WEAK_STATES = 8


@dataclass(frozen=True)
class SnapshotPlan:
    """Which fence / store indices to capture during a single execution.

    Threaded from :class:`~repro.core.crashgen.CrashImageGenerator`
    through ``Executor.run`` → ``Workload.run`` down to
    :meth:`PersistenceDomain.plan_snapshots`.  Frozen and module-level so
    it pickles across the fork-server protocol if it ever needs to.
    """

    fences: Tuple[int, ...] = ()
    stores: Tuple[int, ...] = ()
    #: Also record, at each fence capture, the lines still pending — the
    #: input :func:`eviction_states` needs to rebuild that instant's weak
    #: states.
    weak_states: bool = False

    def __bool__(self) -> bool:
        return bool(self.fences or self.stores)


@dataclass(frozen=True)
class CrashSnapshot:
    """A strict crash image harvested from a single pass, already built.

    In-process, ``RunResult.snapshots`` holds lazy
    :class:`~repro.pmem.persistence.MediaSnapshot` objects, which build
    their image when read; one pickles as this record (a fork-server
    reply), with the same attributes and its image built.

    Attributes:
        kind: ``"fence"`` or ``"store"``.
        index: the fence index / store index of the capture point.
        fences_done: fences completed at capture time — exactly the fence
            count a dedicated re-execution crashing at this point would
            have reported, which the generator needs to charge the
            virtual-time cost model identically.
        image: the full media contents at the capture instant.
        pending: ``(line, volatile bytes)`` of each line still pending at
            the capture instant; empty unless this is a fence capture of
            a plan that asked for weak states.
    """

    kind: str
    index: int
    fences_done: int
    image: bytearray = field(repr=False)
    pending: Tuple[Tuple[int, bytes], ...] = field(default=(), repr=False)


def _overlay(media: bytes,
             overlays: Sequence[Tuple[int, bytes]]) -> bytearray:
    state = bytearray(media)
    for line, data in overlays:
        start = line * CACHE_LINE
        state[start:start + len(data)] = data
    return state


def eviction_states(media: bytes, overlays: Sequence[Tuple[int, bytes]]
                    ) -> Iterator[bytearray]:
    """Yield the eviction sample for one crash instant.

    Each state is a new buffer the caller owns.

    ``media`` is the strict crash state and ``overlays`` lists ``(line,
    volatile bytes)`` for every line pending at that instant, in line
    order (:meth:`PersistenceDomain.pending_overlays`).  Yields the state
    where every pending line persisted, then — when more than one line is
    pending — one state per single pending line: a deterministic,
    linear-size sample of the exponential space of eviction outcomes
    (sufficient to expose single-variable ordering violations such as a
    commit flag persisting before its data).
    """
    if not overlays:
        return
    yield _overlay(media, overlays)
    if len(overlays) > 1:
        for overlay in overlays:
            yield _overlay(media, (overlay,))

