"""Crash-image generation (Section 3.2).

A failure can happen at any point, so the space of crash images is
unbounded.  PMFuzz cuts it down with the control-flow-dependency
observation: the recovery path depends on a few key variables whose
updates are bracketed by *ordering points* (persist barriers), so
failures are placed:

1. **at ordering points** — after each fence, the guaranteed-persistent
   state is exactly what a failure there would leave behind; and
2. **probabilistically at additional points**, at a configurable rate —
   here, at arbitrary *stores between* ordering points, so that even a
   program with misplaced ordering points still yields failure images.

The paper produces each crash image by re-executing the input commands
on the parent image with a failure injected.  That is O(K) full
executions per interesting test case (K = sampled ordering points plus
probabilistic extras), and it dominated campaign wall time here exactly
as image I/O dominated the paper's un-optimized runs.

Because re-executions are deterministic replays of the same (image,
commands) pair, all K crash images are instead harvested from **one**
instrumented execution: a :class:`~repro.pmem.crash.SnapshotPlan` arms
copy-on-write media captures at every selected fence/store index, and
each capture builds the byte-identical image the dedicated
re-execution would have produced.  The images are built one at a time:
:meth:`CrashImageGenerator.generate` returns a list whose
:attr:`CrashImage.image` is built from its snapshot only when the
caller reads it, so a campaign holds one crash image at a time rather
than every image of the test case at once.  The *virtual-time* cost
model is still charged per harvested image exactly as if the
re-execution had happened — the captured ``fences_done`` at each point
reconstructs the fence count that re-execution would have reported —
so Figure-13 curves and ``FuzzStats.comparable()`` are bit-identical to
the paper's loop.

The single pass is the only crash path.  When it fails after the
supervisor's retries, the test case yields no crash images, just as a
failed execution yields no coverage; what the supervisor spent on it is
still charged (:attr:`CrashImages.overhead`).
"""

from __future__ import annotations

from typing import List, Union

from repro.fuzz.executor import Executor
from repro.fuzz.rng import DeterministicRandom
from repro.pmem.crash import CrashSnapshot, SnapshotPlan
from repro.pmem.image import PMImage
from repro.pmem.persistence import MediaSnapshot
from repro.workloads.base import RunOutcome
from repro.workloads.mapcli import parse_commands

#: Sampled ordering points per test case (the campaign's setting).
MAX_ORDERING_POINTS = 4

#: Probability of one extra store-point failure per ordering point.
EXTRA_RATE = 0.25


class CrashImage:
    """One generated crash image with its provenance.

    Args:
        snapshot: the single pass's capture to build the image from.
        template: the parent image whose layout and uuid the built
            image takes.
    """

    __slots__ = ("fence_index", "probabilistic", "cost", "_snapshot",
                 "_template")

    def __init__(self, snapshot: Union[MediaSnapshot, CrashSnapshot],
                 template: PMImage, fence_index: int, probabilistic: bool,
                 cost: float) -> None:
        #: ordering point, or -1 for store-point failures
        self.fence_index = fence_index
        #: True when from an extra (store-point) failure
        self.probabilistic = probabilistic
        #: virtual-time cost of the (modeled) generating re-execution
        self.cost = cost
        self._snapshot = snapshot
        self._template = template

    @property
    def image(self) -> PMImage:
        """The crash image.

        Built from the snapshot on every read (a new image each time),
        so read it once; nothing holds it after the caller drops it.
        """
        template = self._template
        return PMImage(layout=template.layout, payload=self._snapshot.image,
                       uuid=template.uuid)


class CrashImages(list):
    """The crash images of one test case, plus what producing them cost
    beyond their modeled re-executions."""

    #: Virtual time the supervisor spent on the single pass itself:
    #: retries and backoff of a pass that then succeeded, or everything
    #: a pass that failed was charged.  Zero for a fault-free pass.
    overhead: float = 0.0


class CrashImageGenerator:
    """Generates crash images for one test case.

    Args:
        executor: the campaign executor (carries the cost model) — a raw
            :class:`Executor` or a
            :class:`~repro.resilience.supervisor.SupervisedExecutor`;
            with the latter, environment faults during the single pass
            are retried or absorbed, and a pass that still fails yields
            no crash images.
        max_ordering_points: cap on sampled ordering points per test
            case (the paper bounds per-test-case work to ~150 ms).
        extra_rate: probability of adding one probabilistic store-point
            failure per sampled ordering point.
    """

    def __init__(self, executor: Executor, rng: DeterministicRandom,
                 max_ordering_points: int = MAX_ORDERING_POINTS,
                 extra_rate: float = EXTRA_RATE) -> None:
        self.executor = executor
        self.rng = rng
        self.max_ordering_points = max_ordering_points
        self.extra_rate = extra_rate

    def select_fences(self, fence_count: int) -> List[int]:
        """Choose the ordering points for a run with ``fence_count`` fences."""
        if fence_count <= 0:
            return []
        stride = max(1, fence_count // self.max_ordering_points)
        sampled = list(range(stride - 1, fence_count, stride))
        return sampled[: self.max_ordering_points]

    def select_stores(self, store_count: int) -> List[int]:
        """Probabilistic extra failure points at arbitrary stores."""
        if store_count <= 0:
            return []
        extras: List[int] = []
        for _ in range(self.max_ordering_points):
            if self.rng.chance(self.extra_rate):
                extras.append(self.rng.randrange(store_count))
        return sorted(set(extras))

    def generate(self, image: PMImage, data: bytes, fence_count: int,
                 store_count: int = 0) -> CrashImages:
        """Produce the crash images for one (image, commands) test case.

        Point selection — including the RNG draws for probabilistic
        store points — happens before the single pass runs, so the RNG
        stream does not depend on how the pass ends.
        """
        fences = self.select_fences(fence_count)
        stores = self.select_stores(store_count)
        return self._generate_singlepass(image, data, fences, stores)

    # ------------------------------------------------------------------
    def _generate_singlepass(self, image: PMImage, data: bytes,
                             fences: List[int],
                             stores: List[int]) -> CrashImages:
        """Harvest every selected crash image from one execution.

        The single pass replays the test case with a snapshot plan; the
        domain captures a copy-on-write media snapshot the instant each
        planned fence/store completes — the very bytes a dedicated
        re-execution crashing there would have left on media.  Each
        returned :class:`CrashImage` keeps its snapshot and builds the
        image when read.

        Virtual time is charged per harvested image as
        ``cost_model.execution(n_commands, fences_done_at_point,
        image_bytes)``: exactly the cost the dedicated re-execution
        would have reported (a crash at fence *f* counts ``f + 1``
        fences because the fence takes effect before the failure; a
        crash at a store counts the fences completed before it).  The
        modeled cost of the one extra execution is *not* charged — that
        is the speedup, and it keeps the virtual-time ledger identical
        to the re-execution loop's.  Recovery the supervisor spent on
        the pass is charged, as :attr:`CrashImages.overhead`.
        """
        crash_images = CrashImages()
        if not fences and not stores:
            return crash_images
        plan = SnapshotPlan(fences=tuple(fences), stores=tuple(stores))
        result = self.executor.run(image, data, snapshot_plan=plan)
        if result.outcome is RunOutcome.HARNESS_FAULT:
            crash_images.overhead = result.cost
            return crash_images
        cost_model = self.executor.cost_model
        raw = getattr(self.executor, "executor", self.executor)
        n_commands = len(parse_commands(data, max_commands=raw.max_commands))
        image_bytes = len(image)
        crash_images.overhead = result.cost - cost_model.execution(
            n_commands=n_commands, n_fences=result.fence_count,
            image_bytes=image_bytes)
        by_point = {(s.kind, s.index): s for s in result.snapshots}
        points = ([("fence", fence, fence) for fence in fences]
                  + [("store", store, -1) for store in stores])
        for kind, index, fence_index in points:
            snap = by_point.get((kind, index))
            if snap is None:
                continue  # execution ended before this failure point
            crash_images.append(CrashImage(
                snap, image, fence_index=fence_index,
                probabilistic=kind == "store",
                cost=cost_model.execution(
                    n_commands=n_commands, n_fences=snap.fences_done,
                    image_bytes=image_bytes),
            ))
        return crash_images
