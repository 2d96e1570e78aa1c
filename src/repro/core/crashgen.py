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
commands) pair, all K crash images can instead be harvested from **one**
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
the paper's loop.  That loop (:meth:`CrashImageGenerator._generate_reexec`)
is kept for two reasons: it is the graceful-degradation path when the
single pass itself dies to an environment fault, and it is the oracle
the equivalence tests compare the single pass against.
"""

from __future__ import annotations

from typing import List, Optional, Union

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
        source: the crash image itself (re-execution), or the single
            pass's snapshot to build it from.
        template: the parent image whose layout and uuid a built image
            takes (required with a snapshot source).
    """

    __slots__ = ("fence_index", "probabilistic", "cost", "_source",
                 "_template")

    def __init__(self, source: Union[PMImage, MediaSnapshot, CrashSnapshot],
                 fence_index: int, probabilistic: bool, cost: float,
                 template: Optional[PMImage] = None) -> None:
        #: ordering point, or -1 for store-point failures
        self.fence_index = fence_index
        #: True when from an extra (store-point) failure
        self.probabilistic = probabilistic
        #: virtual-time cost of the (modeled) generating re-execution
        self.cost = cost
        self._source = source
        self._template = template

    @property
    def image(self) -> PMImage:
        """The crash image.

        Built from the snapshot on every read (a new image each time),
        so read it once; nothing holds it after the caller drops it.
        """
        source = self._source
        if isinstance(source, PMImage):
            return source
        template = self._template
        return PMImage(layout=template.layout, payload=source.image,
                       uuid=template.uuid)


class CrashImageGenerator:
    """Generates crash images for one test case.

    Args:
        executor: the campaign executor (carries the cost model) — a raw
            :class:`Executor` or a
            :class:`~repro.resilience.supervisor.SupervisedExecutor`;
            with the latter, environment faults during generation are
            retried/absorbed and surface as non-CRASHED outcomes that
            are simply skipped.
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
                 store_count: int = 0) -> List[CrashImage]:
        """Produce the crash images for one (image, commands) test case.

        Point selection — including the RNG draws for probabilistic
        store points — happens before either generation path runs, so
        the single pass and its re-execution fallback consume the same
        deterministic RNG stream.
        """
        fences = self.select_fences(fence_count)
        stores = self.select_stores(store_count)
        return self._generate_singlepass(image, data, fences, stores)

    # ------------------------------------------------------------------
    def _generate_reexec(self, image: PMImage, data: bytes,
                         fences: List[int],
                         stores: List[int]) -> List[CrashImage]:
        """Re-execute the test case once per selected failure point."""
        crash_images: List[CrashImage] = []
        for fence in fences:
            result = self.executor.run(image, data, crash_at_fence=fence)
            if (result.outcome is RunOutcome.CRASHED
                    and result.crash_image is not None):
                crash_images.append(CrashImage(
                    result.crash_image, fence_index=fence,
                    probabilistic=False, cost=result.cost,
                ))
        for store in stores:
            result = self.executor.run(image, data, crash_at_store=store)
            if (result.outcome is RunOutcome.CRASHED
                    and result.crash_image is not None):
                crash_images.append(CrashImage(
                    result.crash_image, fence_index=-1,
                    probabilistic=True, cost=result.cost,
                ))
        return crash_images

    def _generate_singlepass(self, image: PMImage, data: bytes,
                             fences: List[int],
                             stores: List[int]) -> List[CrashImage]:
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
        real cost of the one extra execution is *not* charged — that is
        the speedup, and it keeps the virtual-time ledger identical to
        the re-execution loop's.

        If the single pass itself dies to an environment fault that the
        supervisor could not absorb (``HARNESS_FAULT``), generation
        degrades gracefully to the legacy per-point re-execution loop,
        which goes back through the supervised retry path one point at
        a time.
        """
        if not fences and not stores:
            return []
        plan = SnapshotPlan(fences=tuple(fences), stores=tuple(stores))
        result = self.executor.run(image, data, snapshot_plan=plan)
        if result.outcome is RunOutcome.HARNESS_FAULT:
            return self._generate_reexec(image, data, fences, stores)
        cost_model = self.executor.cost_model
        raw = getattr(self.executor, "executor", self.executor)
        n_commands = len(parse_commands(data, max_commands=raw.max_commands))
        image_bytes = len(image)
        by_point = {(s.kind, s.index): s for s in result.snapshots}
        crash_images: List[CrashImage] = []
        for fence in fences:
            snap = by_point.get(("fence", fence))
            if snap is None:
                continue  # execution ended before this ordering point
            crash_images.append(CrashImage(
                snap, fence_index=fence, probabilistic=False,
                cost=cost_model.execution(
                    n_commands=n_commands, n_fences=snap.fences_done,
                    image_bytes=image_bytes),
                template=image,
            ))
        for store in stores:
            snap = by_point.get(("store", store))
            if snap is None:
                continue
            crash_images.append(CrashImage(
                snap, fence_index=-1, probabilistic=True,
                cost=cost_model.execution(
                    n_commands=n_commands, n_fences=snap.fences_done,
                    image_bytes=image_bytes),
                template=image,
            ))
        return crash_images
