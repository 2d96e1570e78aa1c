"""Cross-failure checking (XFDetector-like).

XFDetector reasons about "the program execution before and after the
failure": it takes the persistent state a failure left behind, re-runs
the program (recovery included), and checks that the post-failure
execution behaves correctly.

The reproduction does the same with the simulated stack.  The crash
images of a test case come from one snapshot-planned replay of it
(:class:`~repro.detect.report.TestingTool` harvests them at the sampled
ordering points, plus their eviction states on request); the detector
never re-executes the test case itself.  For each crash image it:

1. reopens the image the way the workload's driver does — which runs
   PMDK transaction recovery plus the workload's own recovery procedure
   (or *skips* it, under paper Bug 6's flag);
2. executes a small probe command sequence (post-failure execution);
3. runs the workload's structural consistency oracle.

A segmentation fault (NULL persistent pointer — paper Bugs 1-5), an
unrecoverable error, or an oracle violation is reported as a
crash-consistency finding attributed to the crash image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import CORRUPTION_ERRORS, ReproError
from repro.pmem.image import PMImage
from repro.workloads.base import Command, RunOutcome, Workload

#: Probe executed after recovery: one lookup, one insert, one lookup —
#: enough post-failure execution to dereference the recovered structure.
DEFAULT_PROBE: Sequence[Command] = (
    Command("g", 1),
    Command("i", 1, 7),
    Command("g", 1),
)


def check_oracle(workload: Workload, image: PMImage) -> List[str]:
    """Run ``workload``'s consistency oracle on ``image``.

    The image is opened raw: the oracle judges the state as-is, since the
    driver's create-if-missing / recover-on-open repairs would mask
    corruption (e.g. a wrong-valued commit variable).  An oracle that
    raises is itself a violation.
    """
    try:
        pool = workload.open_for_inspection(image)
        return workload.check_consistency(pool)
    except (ReproError,) + CORRUPTION_ERRORS as exc:
        return [f"oracle raised: {type(exc).__name__}: {exc}"]


@dataclass
class CrashFinding:
    """One cross-failure finding for a specific crash image."""

    fence_index: Optional[int]
    outcome: RunOutcome
    violations: List[str] = field(default_factory=list)
    error: str = ""

    @property
    def is_bug(self) -> bool:
        """True when the post-failure behaviour is buggy."""
        return (self.outcome in (RunOutcome.SEGFAULT, RunOutcome.ERROR,
                                 RunOutcome.INVALID_IMAGE)
                or bool(self.violations))

    def describe(self) -> str:
        where = (f"crash@fence{self.fence_index}"
                 if self.fence_index is not None else "final image")
        if self.outcome is not RunOutcome.OK:
            return f"{where}: post-failure {self.outcome.value}: {self.error}"
        return f"{where}: " + "; ".join(self.violations)


class XFDetector:
    """Replays recovery + a probe on crash images and checks the oracle.

    Args:
        workload_factory: zero-argument callable returning a *fresh*
            workload instance with the configuration under test (fresh,
            because workloads may carry volatile state between runs).
        probe: post-failure command sequence.
    """

    def __init__(self, workload_factory, probe: Sequence[Command] = DEFAULT_PROBE,
                 injector=None):
        self.workload_factory = workload_factory
        self.probe = list(probe)
        self.injector = injector

    def check_image(self, image: PMImage,
                    fence_index: Optional[int] = None) -> CrashFinding:
        """Run the full post-failure pipeline on one image.

        When the detector was built with a bug injector (the synthetic
        bug evaluation), the post-failure execution runs under it too:
        the injected bug exists in the "binary", so it is present during
        recovery as well.
        """
        from repro.instrument.context import ExecutionContext, push_context

        workload: Workload = self.workload_factory()
        ctx = ExecutionContext(injector=self.injector, collect_trace=False)
        with push_context(ctx):
            result = workload.run(image, self.probe)
        finding = CrashFinding(fence_index=fence_index, outcome=result.outcome,
                               error=result.error)
        if result.outcome is RunOutcome.OK and result.final_image is not None:
            finding.violations = check_oracle(workload, result.final_image)
        return finding
