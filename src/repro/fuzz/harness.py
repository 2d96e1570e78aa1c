"""Workload execution harness: the Figure-4 program lifecycle.

This is the orchestration that used to live inline in
``Workload.run``: open the PM image, arm failure points, run
recovery/creation (the execution prefix), apply the input commands, and
classify how the run ended.

It lives outside ``repro/workloads/`` on purpose.  Branch coverage
instruments every line under ``repro/workloads`` — that package *is*
the target program — and the harness is exactly where control flow
diverges between executions: a warm-open cache hit skips the prefix,
a cold open (a cache miss or bypass) executes it.  If those branches
were instrumented, the coverage map would depend on the cache's state,
breaking the fast-path equivalence contract (identical
``comparable()`` stats across {coverage backend} × {warm, cold open} ×
{isolation}; see ``tests/test_fastpath_grid.py``).  Here they are
invisible to coverage, while the instrumented prefix/command code paths
(:meth:`Workload.run_prefix`, :meth:`Workload.run_commands`) stay
identical across every configuration — on a warm hit the prefix's
recorded coverage delta is replayed by the cache, so the resulting map
is byte-identical to a cold open.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import (CORRUPTION_ERRORS, InvalidImageError,
                          OutOfPMemError, PMemError, SimulatedCrash,
                          TransactionAborted)
from repro.pmdk.pool import PmemObjPool
from repro.pmem.image import PMImage
from repro.workloads.base import Command, RunOutcome, RunResult
from repro.workloads.volatile_ops import VolatileCommandProcessor


def run_workload(
    workload,
    image: PMImage,
    commands: Sequence[Command],
    crash_at_fence: Optional[int] = None,
    crash_at_store: Optional[int] = None,
    weak_states: bool = False,
    max_weak_states: int = 8,
    snapshot_plan=None,
    warm=None,
) -> RunResult:
    """Execute ``commands`` on ``image``; optionally crash mid-way.

    The complete program lifecycle of Figure 4: load the PM image,
    (maybe) recover, apply input commands, and either shut down cleanly
    (producing a *normal image*) or fail — at the given ordering point
    (``crash_at_fence``) or at an arbitrary store (``crash_at_store``,
    the paper's probabilistic extra failure points).  With
    ``weak_states`` the result also carries crash images under
    cache-eviction semantics; with a ``snapshot_plan`` the persistence
    domain captures the strict crash image at every planned fence /
    store index (single-pass crash generation, see
    ``RunResult.snapshots``).  The snapshots come back unbuilt: each
    :class:`~repro.pmem.persistence.MediaSnapshot` builds its image when
    its ``image`` is read (and pickles with it built), so a caller that
    takes the images one at a time never holds them all at once.

    ``warm`` is an optional :class:`~repro.fuzz.warmcache.WarmContext`:
    when its lookup hits, the open/recovery/creation prefix is replaced
    by a restored domain plus replayed coverage deltas — observably
    identical to running it.
    """
    result = RunResult(outcome=RunOutcome.OK)
    if workload._volatile is None:
        # One processor per workload instance (the executor adopts its
        # own pooled processor instead, resetting it per execution).
        workload._volatile = VolatileCommandProcessor()
    pool: Optional[PmemObjPool] = None
    try:
        if warm is not None:
            pool = warm.lookup(workload.layout)
        if pool is not None:
            # Warm hit: the prefix already ran (in the execution that
            # populated the cache); arm the failure points now — the
            # cache guarantees armed indices lie beyond the prefix, so
            # arming after the restore is equivalent to arming before
            # a re-executed prefix.
            pool.domain.crash_at_fence = crash_at_fence
            pool.domain.crash_at_store = crash_at_store
        else:
            try:
                pool = PmemObjPool.open(image, workload.layout)
            except InvalidImageError as exc:
                result.outcome = RunOutcome.INVALID_IMAGE
                result.error = str(exc)
                return result
            # Arm the failure point before any recovery/creation work so
            # that crashes can land inside initialization and recovery.
            if crash_at_fence is not None:
                pool.domain.crash_at_fence = crash_at_fence
            if crash_at_store is not None:
                pool.domain.crash_at_store = crash_at_store
            if snapshot_plan is not None and snapshot_plan:
                pool.domain.plan_snapshots(fences=snapshot_plan.fences,
                                           stores=snapshot_plan.stores,
                                           pending=snapshot_plan.weak_states)
            workload.run_prefix(pool)
            if warm is not None:
                warm.store(pool)
        workload.run_commands(pool, commands, result)
    except SimulatedCrash:
        result.outcome = RunOutcome.CRASHED
        result.crash_image = pool.crash_image()
        if weak_states:
            result.weak_crash_images = workload._weak_images(
                pool, max_weak_states)
    except CORRUPTION_ERRORS as exc:
        # Wild reads/writes from corrupted persistent data: the process
        # would die with SIGSEGV.  Recovery inside the open can fault
        # before any pool exists; that death leaves no crash image.
        result.outcome = RunOutcome.SEGFAULT
        result.error = f"{type(exc).__name__}: {exc}"
        if pool is not None:
            result.crash_image = pool.crash_image()
    except (PMemError, OutOfPMemError, TransactionAborted) as exc:
        result.outcome = RunOutcome.ERROR
        result.error = str(exc)
    finally:
        if pool is not None:
            result.fence_count = pool.domain.fence_count
            result.store_count = pool.domain.store_count
            pool.domain.crash_at_fence = None
            pool.domain.crash_at_store = None
            if snapshot_plan is not None and snapshot_plan:
                # Lazy: each snapshot builds its image when read.
                result.snapshots = pool.domain.take_snapshots()
    return result
