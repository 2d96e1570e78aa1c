"""Combined testing tool: one test case in, one bug report out.

This is step ➎ of the paper's Figure 9: PMFuzz hands each saved test
case (input commands + PM image) to the back-end testing tools.  The
:class:`TestingTool` runs the battery in two stages:

* **main** — execute the test case with tracing, feed the trace to
  Pmemcheck, and check the resulting normal image against the
  workload's oracle;
* **crash** — generate the test case's crash images at a sample of its
  ordering points and feed each to the XFDetector-style cross-failure
  check.

:meth:`TestingTool.test` runs both by default.  A caller whose verdict
the main stage can already decide asks for the main stage alone and
completes the crash stage with :meth:`TestingTool.check_crash_states`
only when the verdict is still open.  Crash-stage findings render as
``crash@fence…``, a prefix no main-stage finding has, so adding them
never removes a difference between two reports' main-stage findings.

Crash images are harvested in one pass, the way the fuzz side's
single-pass crash generation does it (:mod:`repro.core.crashgen`): a
second execution of the test case runs under a
:class:`~repro.pmem.crash.SnapshotPlan` that captures the media at every
sampled fence, so the test case executes twice in total, however many
fences are sampled.  Each fence's image is built only when its turn to
be checked comes, so the crash stage holds one at a time.  With
``weak_states`` the same pass also records the lines still pending at
each sampled fence, and the eviction states come from
:func:`repro.pmem.crash.eviction_states` — the images a crashing
re-execution per fence would have produced, in the same order.

The report separates crash-consistency findings from performance
findings, matching the paper's bug taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import List, Sequence

from repro.errors import CORRUPTION_ERRORS, ReproError
from repro.instrument.context import ExecutionContext, push_context
from repro.pmdk.tx import TransactionLog
from repro.pmem.crash import MAX_WEAK_STATES, SnapshotPlan, eviction_states
from repro.pmem.image import PMImage
from repro.detect.pmemcheck import Pmemcheck, Violation
from repro.detect.xfdetector import CrashFinding, XFDetector
from repro.workloads.base import Command, RunOutcome, Workload


@dataclass
class BugReport:
    """Everything the battery found for one test case."""

    outcome: RunOutcome
    trace_violations: List[Violation] = field(default_factory=list)
    oracle_violations: List[str] = field(default_factory=list)
    crash_findings: List[CrashFinding] = field(default_factory=list)
    sites_hit: frozenset = frozenset()
    outputs: List[str] = field(default_factory=list)
    error: str = ""
    #: Ordering points the traced execution passed (the crash stage
    #: samples its crash states from them).
    fence_count: int = 0
    #: Whether the crash stage has run; it runs at most once per report.
    crash_checked: bool = False

    @property
    def crash_consistency_findings(self) -> List[str]:
        """All crash-consistency findings, rendered."""
        findings = [f"{v.kind.value} at {v.site}"
                    for v in self.trace_violations if not v.is_performance]
        findings.extend(f"oracle: {v}" for v in self.oracle_violations)
        findings.extend(f.describe() for f in self.crash_findings)
        if self.outcome in (RunOutcome.SEGFAULT, RunOutcome.ERROR):
            findings.append(f"execution {self.outcome.value}: {self.error}")
        return findings

    @property
    def performance_findings(self) -> List[str]:
        """All performance findings, rendered."""
        return [f"{v.kind.value} at {v.site}"
                for v in self.trace_violations if v.is_performance]

    @property
    def has_bug(self) -> bool:
        return bool(self.crash_consistency_findings or
                    self.performance_findings)


def sample_fences(fence_count: int, max_crash_images: int) -> List[int]:
    """The ordering points a test case with ``fence_count`` fences crashes at.

    Every ``fence_count // max_crash_images``-th fence (at least every
    fence), starting at fence 0.  ``max_crash_images`` sets the stride,
    not a hard cap: the sample has at most ``2 * max_crash_images - 1``
    fences, reached at ``fence_count == 2 * max_crash_images - 1``.
    """
    if fence_count <= 0:
        return []
    stride = max(1, fence_count // max_crash_images)
    return list(range(0, fence_count, stride))


class TestingTool:
    """Runs the Pmemcheck + XFDetector battery on one test case.

    The battery has two stages: :meth:`test` runs the main stage (the
    traced execution, Pmemcheck and the oracle) and, unless asked not
    to, the crash stage; :meth:`check_crash_states` runs the crash stage
    (snapshot pass plus XFDetector) on a report whose main stage ran
    alone.  The tool keeps no per-test state, so any tool with the same
    workload factory and injector completes a report's crash stage.

    Args:
        workload_factory: zero-argument callable returning a fresh
            workload instance.
        max_crash_images: target number of sampled ordering points per
            test case; the real bound is ``2 * max_crash_images - 1``
            (see :func:`sample_fences`).
        injector: optional synthetic-bug injector, active in every
            execution of the battery (post-failure runs included).
        weak_states: also judge eviction states at each sampled fence.
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, workload_factory, max_crash_images: int = 16,
                 injector=None, weak_states: bool = False):
        self.workload_factory = workload_factory
        self.max_crash_images = max_crash_images
        self.injector = injector
        #: Also judge crash states under cache-eviction semantics: any
        #: subset of pending lines may have persisted.  Catches
        #: reordering bugs that strict ordering-point snapshots mask
        #: (e.g. a commit flag evicted before its payload).
        self.weak_states = weak_states

    def test(self, image: PMImage, commands: Sequence[Command],
             with_crash_images: bool = True) -> BugReport:
        """Execute (image, commands) and run the detection battery.

        With ``with_crash_images=False`` only the main stage runs; the
        report's crash stage can be completed later with
        :meth:`check_crash_states` on the same image and commands.
        """
        workload: Workload = self.workload_factory()
        ctx = ExecutionContext(injector=self.injector)
        with push_context(ctx):
            result = workload.run(image, commands)
        heap_base = self._heap_base(image)
        pmemcheck = Pmemcheck(heap_base)
        report = BugReport(outcome=result.outcome,
                           sites_hit=frozenset(ctx.sites_hit),
                           outputs=list(result.outputs),
                           error=result.error,
                           fence_count=result.fence_count)
        report.trace_violations = pmemcheck.analyze(
            ctx.trace, clean_shutdown=result.outcome is RunOutcome.OK
        )
        if result.outcome is RunOutcome.OK and result.final_image is not None:
            report.oracle_violations = self._oracle(result.final_image)
        if with_crash_images:
            self.check_crash_states(report, image, commands)
        return report

    def check_crash_states(self, report: BugReport, image: PMImage,
                           commands: Sequence[Command]) -> None:
        """Run the crash stage for ``report`` unless it already ran.

        ``image`` and ``commands`` must be the ones the report's main
        stage executed.  A test case whose traced run did not end
        cleanly has no crash states to judge.
        """
        if report.crash_checked:
            return
        report.crash_checked = True
        if report.outcome is RunOutcome.OK:
            report.crash_findings = self._cross_failure(
                image, commands, report.fence_count
            )

    # ------------------------------------------------------------------
    def _heap_base(self, image: PMImage) -> int:
        # Pool geometry is static: metadata block + log region.
        return 64 + TransactionLog.region_size()

    def _oracle(self, image: PMImage) -> List[str]:
        workload = self.workload_factory()
        try:
            # Raw open: the oracle judges the state as-is; the driver's
            # create-if-missing / recover-on-open repairs would mask
            # corruption (e.g. a wrong-valued commit variable).
            pool = workload.open_for_inspection(image)
            return workload.check_consistency(pool)
        except (ReproError,) + CORRUPTION_ERRORS as exc:
            return [f"oracle raised: {type(exc).__name__}: {exc}"]

    def _cross_failure(self, image: PMImage, commands: Sequence[Command],
                       fence_count: int) -> List[CrashFinding]:
        """Crash at a sample of ordering points; cross-check each image.

        One execution under a snapshot plan yields the strict crash image
        (and, with ``weak_states``, the pending lines) at every sampled
        fence; findings come out in fence order, each fence's strict
        finding before its eviction-state findings.
        """
        fences = sample_fences(fence_count, self.max_crash_images)
        if not fences:
            return []
        plan = SnapshotPlan(fences=tuple(fences),
                            weak_states=self.weak_states)
        workload = self.workload_factory()
        ctx = ExecutionContext(injector=self.injector, collect_trace=False)
        with push_context(ctx):
            result = workload.run(image, commands, snapshot_plan=plan)
        by_fence = {s.index: s for s in result.snapshots if s.kind == "fence"}
        xfd = XFDetector(self.workload_factory, injector=self.injector)
        findings: List[CrashFinding] = []
        for fence in fences:
            snap = by_fence.get(fence)
            if snap is None:
                continue  # the execution ended before this ordering point
            strict = snap.image  # built here, one fence at a time
            finding = xfd.check_image(self._crash_image(image, strict),
                                      fence_index=fence)
            if finding.is_bug:
                findings.append(finding)
            if not self.weak_states:
                continue
            weak_states = islice(eviction_states(strict, snap.pending),
                                 MAX_WEAK_STATES)
            for payload in weak_states:
                weak_finding = xfd.check_image(
                    self._crash_image(image, payload), fence_index=fence)
                if weak_finding.is_bug:
                    weak_finding.error = "(eviction state) " + weak_finding.error
                    findings.append(weak_finding)
        return findings

    @staticmethod
    def _crash_image(image: PMImage, payload: bytearray) -> PMImage:
        # ``payload`` is a new buffer each time (a snapshot's image, an
        # eviction state), and opening the image copies it: no copy here.
        return PMImage(layout=image.layout, payload=payload,
                       uuid=image.uuid)
