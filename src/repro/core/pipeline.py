"""End-to-end pipeline: fuzz, then hand test cases to the testing tools.

This is the whole of Figure 9: annotate → fuzz → feed generated test
cases to the detection back-ends → bug report.  Two evaluation flows
build on it:

* **Real-bug detection** (Section 5.4 / Section 5.4.1): run a campaign
  against a buggy workload variant, replay the saved test cases through
  the :class:`~repro.detect.report.TestingTool`, and record — per paper
  bug — whether it was detected and the virtual time of the first test
  case that detects it.
* **Synthetic-bug detection** (Table 3): run a campaign against the
  fixed workload, intersect the covered PM-operation sites with each
  configuration's synthetic bug sites, and *confirm* every covered bug
  by replaying its witness test case with the injection active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core.pmfuzz import build_engine
from repro.core.config import FuzzConfig, config_by_name
from repro.detect.pmemcheck import ViolationKind
from repro.detect.report import BugReport, TestingTool
from repro.fuzz.rng import DeterministicRandom
from repro.fuzz.stats import FuzzStats
from repro.workloads.base import RunOutcome
from repro.workloads.mapcli import parse_commands
from repro.workloads.realbugs import RealBug, real_bugs_for
from repro.workloads.registry import get_workload
from repro.workloads.synthetic import BugInjector, SyntheticBug

#: Designated detection signatures for the performance bugs: the
#: (violation kind, site) pair that identifies each paper bug.
PERF_BUG_SIGNATURES: Dict[int, tuple] = {
    7: (ViolationKind.REDUNDANT_FLUSH, "memcached:pslab:persist_all"),
    8: (ViolationKind.REDUNDANT_LOG, "hashmap_tx:create:txadd_again"),
    9: (ViolationKind.REDUNDANT_LOG, "rbtree:insert:txset_fresh"),
    10: (ViolationKind.REDUNDANT_LOG, "rbtree:create:log_first"),
    11: (ViolationKind.REDUNDANT_LOG, "rbtree:fixup:txset_parent"),
    12: (ViolationKind.REDUNDANT_LOG, "btree:insert_item:txadd"),
}


def report_detects_real_bug(report: BugReport, bug: RealBug) -> bool:
    """Decide whether one test case's battery output exposes ``bug``."""
    if bug.number in PERF_BUG_SIGNATURES:
        kind, site = PERF_BUG_SIGNATURES[bug.number]
        return any(v.kind is kind and v.site == site
                   for v in report.trace_violations)
    if bug.number <= 5:
        # Init-not-retried: the post-failure run dereferences NULL.
        if report.outcome is RunOutcome.SEGFAULT:
            return True
        return any(f.outcome is RunOutcome.SEGFAULT
                   for f in report.crash_findings)
    if bug.number == 6:
        # Recovery never called: the oracle sees the broken count/window.
        needles = ("count", "dirty")
        for finding in report.crash_findings:
            if any(n in v for v in finding.violations for n in needles):
                return True
        return any(any(n in v for n in needles)
                   for v in report.oracle_violations)
    raise ValueError(f"unknown real bug number {bug.number}")


@dataclass
class RealBugResult:
    """Detection outcome for one paper bug under one campaign."""

    bug: RealBug
    detected: bool = False
    first_detection_vtime: Optional[float] = None
    detecting_entry: Optional[int] = None


@dataclass
class PipelineResult:
    """Everything one fuzz-and-detect run produced."""

    stats: FuzzStats
    real_bugs: List[RealBugResult] = field(default_factory=list)
    test_cases_checked: int = 0

    def result_for(self, number: int) -> RealBugResult:
        for result in self.real_bugs:
            if result.bug.number == number:
                return result
        raise KeyError(f"bug {number} not part of this pipeline run")


class FuzzAndDetectPipeline:
    """Fuzz a (possibly buggy) workload, then run the detection battery.

    Args:
        workload_name: one of the eight evaluated programs.
        config_name: a Table-2 configuration name.
        bugs: real-bug flags compiled into the workload.
        max_checked: cap on replayed test cases (favored first), keeping
            the back-end testing cost bounded — the same reason the
            paper's test-case tree lets the tools skip redundant cases.
    """

    def __init__(
        self,
        workload_name: str,
        config_name: str = "pmfuzz",
        bugs: FrozenSet[str] = frozenset(),
        seed: int = 0x504D465A,
        max_checked: int = 64,
        **engine_kwargs,
    ) -> None:
        self.workload_name = workload_name
        self.config: FuzzConfig = config_by_name(config_name)
        self.bugs = frozenset(bugs)
        self.seed = seed
        self.max_checked = max_checked
        self.engine_kwargs = engine_kwargs

    # ------------------------------------------------------------------
    def run(self, budget_vseconds: float) -> PipelineResult:
        """Fuzz for the budget, then check saved test cases in order."""
        rng = DeterministicRandom(self.seed).fork(
            f"pipeline/{self.workload_name}/{self.config.name}"
        )
        engine = build_engine(self.workload_name, self.config, rng=rng,
                              bugs=self.bugs, **self.engine_kwargs)
        # Pipeline stages land on the campaign's own trace stream, so a
        # report over the trace directory shows where the fuzz stage
        # ended and the detection stage began.
        engine.trace.emit("stage_enter", engine.vclock, stage="fuzz")
        stats = engine.run(budget_vseconds)
        engine.trace.emit("stage_exit", engine.vclock, stage="fuzz",
                          executions=stats.executions)
        result = PipelineResult(stats=stats)
        targets = real_bugs_for(self.workload_name)
        target_results = {b.number: RealBugResult(bug=b) for b in targets
                          if b.flag in self.bugs}
        engine.trace.emit("stage_enter", engine.vclock, stage="detect",
                          targets=len(target_results))
        try:
            if not target_results:
                return result
            tool = TestingTool(
                lambda: get_workload(self.workload_name, bugs=self.bugs)
            )
            # Favored (PM-path) entries first, then creation order — the
            # testing tool receives the high-value test cases first.
            entries = sorted(engine.queue.entries,
                             key=lambda e: (-e.favored, e.created_at))
            for entry in entries[: self.max_checked]:
                if all(r.detected for r in target_results.values()):
                    break
                image = engine.storage.load(entry.image_id or
                                            engine._seed_image_id)
                report = tool.test(image, parse_commands(entry.data))
                result.test_cases_checked += 1
                for bug_result in target_results.values():
                    if bug_result.detected:
                        continue
                    if report_detects_real_bug(report, bug_result.bug):
                        bug_result.detected = True
                        bug_result.first_detection_vtime = entry.created_at
                        bug_result.detecting_entry = entry.entry_id
            result.real_bugs = list(target_results.values())
            return result
        finally:
            engine.trace.emit("stage_exit", engine.vclock, stage="detect",
                              checked=result.test_cases_checked)
            engine.trace.close()


# ----------------------------------------------------------------------
# Synthetic-bug evaluation (Table 3)
# ----------------------------------------------------------------------
@dataclass
class SyntheticDetection:
    """Outcome for one synthetic bug under one campaign."""

    bug: SyntheticBug
    site_covered: bool
    confirmed: bool


def _confirm_commands(witness_data: bytes) -> list:
    """The witness commands plus read-back probes: persistent-value
    corruption surfaces as wrong scan/count output even when no
    structural invariant breaks."""
    from repro.workloads.base import Command

    return parse_commands(witness_data) + [
        Command("q"), Command("n"), Command("m"),
    ]


def clean_witness_report(workload_name: str, witness_image,
                         witness_data: bytes) -> BugReport:
    """The battery's report on a witness replayed with no bug injected.

    It depends only on the workload, the witness image and its commands,
    so :func:`evaluate_synthetic_bugs` computes it once per distinct
    witness and shares it across every bug that witness is replayed for.
    """
    clean_tool = TestingTool(lambda: get_workload(workload_name))
    return clean_tool.test(witness_image, _confirm_commands(witness_data))


def confirm_synthetic_bug(
    workload_name: str,
    bug: SyntheticBug,
    witness_image,
    witness_data: bytes,
    clean_report: Optional[BugReport] = None,
) -> bool:
    """Replay a witness test case with the injection active.

    The bug counts as detected when the injected run's crash-consistency
    findings strictly exceed the clean run's (the back-end tool reports
    something new), or when the injection visibly changes the program's
    output — corrupted values surface as wrong query results, the
    differential signal a test harness observes.  ``clean_report`` is the
    witness's :func:`clean_witness_report` when the caller already has
    it; otherwise it is computed here.
    """
    clean = clean_report
    if clean is None:
        clean = clean_witness_report(workload_name, witness_image,
                                     witness_data)
    injector = BugInjector([bug])
    buggy_tool = TestingTool(lambda: get_workload(workload_name),
                             injector=injector)
    buggy = buggy_tool.test(witness_image, _confirm_commands(witness_data))
    if bug.bug_id not in injector.triggered:
        return False
    clean_cc = set(clean.crash_consistency_findings)
    buggy_cc = set(buggy.crash_consistency_findings)
    return bool(buggy_cc - clean_cc) or buggy.outputs != clean.outputs


def evaluate_synthetic_bugs(
    workload_name: str,
    stats: FuzzStats,
    storage,
    confirm: bool = True,
) -> List[SyntheticDetection]:
    """Score every Table-3 synthetic bug against a finished campaign.

    A bug is *covered* when some generated test case reached its site;
    when ``confirm`` is set, each covered bug is additionally replayed
    (via the site's witness test case) with the injection active.  The
    clean replay of each distinct witness runs once and is shared by
    every bug confirmed against it.
    """
    workload = get_workload(workload_name)
    detections: List[SyntheticDetection] = []
    clean_reports: Dict[tuple, BugReport] = {}
    for bug in workload.synthetic_bugs():
        covered = bug.site in stats.sites_hit
        confirmed = False
        if covered and confirm:
            for image_id, data, _ in stats.site_witness[bug.site]:
                witness_image = storage.load(image_id)
                clean = clean_reports.get((image_id, data))
                if clean is None:
                    clean = clean_witness_report(workload_name,
                                                 witness_image, data)
                    clean_reports[(image_id, data)] = clean
                if confirm_synthetic_bug(workload_name, bug,
                                         witness_image, data,
                                         clean_report=clean):
                    confirmed = True
                    break
        detections.append(SyntheticDetection(
            bug=bug, site_covered=covered,
            confirmed=confirmed if confirm else covered,
        ))
    return detections
