"""Single-pass crash harvest in detection equals the per-fence loop.

``TestingTool._cross_failure`` takes every sampled crash image (and its
eviction states) from one execution under a snapshot plan.  The oracle
below is the loop it replaced: one crashing re-execution per sampled
fence.  Both must give identical findings, in the same order, and leave
the bug injector in the same state.

The file also covers the other once-only pieces of detection: the
fence sample size, the shared clean replay per synthetic-bug witness,
and the §5.4 real-bug canary.
"""

from typing import List

import pytest

from repro.core.config import config_by_name
from repro.core.pipeline import (
    FuzzAndDetectPipeline, confirm_synthetic_bug, evaluate_synthetic_bugs,
)
from repro.core.pmfuzz import build_engine
from repro.detect.report import TestingTool, sample_fences
from repro.detect.xfdetector import CrashFinding, XFDetector
from repro.instrument.context import ExecutionContext, push_context
from repro.workloads import get_workload
from repro.workloads.mapcli import parse_commands
from repro.workloads.realbugs import ALL_REAL_BUGS, buggy_flags_for
from repro.workloads.synthetic import BugInjector

WORKLOADS = ["hashmap_tx", "hashmap_atomic", "btree", "rbtree",
             "memcached", "redis"]

CMDS = parse_commands(b"i 5 1\ni 9 2\ni 13 3\ng 5\nr 9\ni 21 4\n")

#: The injected bug per workload: one that ``CMDS`` reach and that makes
#: the oracle report findings, eviction-state ones included where the
#: workload has any.
INJECTED = {
    "hashmap_tx": "hashmap_tx:s05",
    "hashmap_atomic": "hashmap_atomic:s07",
    "btree": "btree:s04",
    "rbtree": "rbtree:s05",
    "memcached": "memcached:s09",
    "redis": "redis:s06",
}


class PerFenceOracle(TestingTool):
    """The per-fence re-execution loop the single pass replaced."""

    def _cross_failure(self, image, commands, fence_count):
        fences = sample_fences(fence_count, self.max_crash_images)
        xfd = XFDetector(self.workload_factory, injector=self.injector)
        findings: List[CrashFinding] = []
        for fence in fences:
            workload = self.workload_factory()
            ctx = ExecutionContext(injector=self.injector,
                                   collect_trace=False)
            with push_context(ctx):
                result = workload.run(image, commands, crash_at_fence=fence,
                                      weak_states=self.weak_states)
            if result.crash_image is None:
                continue
            finding = xfd.check_image(result.crash_image, fence_index=fence)
            if finding.is_bug:
                findings.append(finding)
            for weak in result.weak_crash_images:
                weak_finding = xfd.check_image(weak, fence_index=fence)
                if weak_finding.is_bug:
                    weak_finding.error = "(eviction state) " + weak_finding.error
                    findings.append(weak_finding)
        return findings


def _injector(name):
    (bug,) = [b for b in get_workload(name).synthetic_bugs()
              if b.bug_id == INJECTED[name]]
    return BugInjector([bug])


def _as_tuple(finding):
    return (finding.fence_index, finding.outcome, finding.violations,
            finding.error)


_GRID = [(name, buggy, injected, weak)
         for name in WORKLOADS
         for buggy in (False, True)
         for injected in (False, True)
         for weak in (False, True)]


@pytest.mark.parametrize(
    "name,buggy,injected,weak", _GRID,
    ids=[f"{n}-{'buggy' if b else 'fixed'}-{'bug' if i else 'clean'}-"
         f"{'weak' if w else 'strict'}" for n, b, i, w in _GRID])
def test_single_pass_matches_per_fence_oracle(name, buggy, injected, weak):
    bugs = buggy_flags_for(name) if buggy else frozenset()
    image = get_workload(name, bugs=bugs).create_image()
    reports, triggered = [], []
    for cls in (TestingTool, PerFenceOracle):
        injector = _injector(name) if injected else None
        tool = cls(lambda: get_workload(name, bugs=bugs), injector=injector,
                   weak_states=weak)
        reports.append(tool.test(image, CMDS))
        triggered.append(set(injector.triggered) if injector else set())
    single, oracle = reports
    assert ([_as_tuple(f) for f in single.crash_findings]
            == [_as_tuple(f) for f in oracle.crash_findings])
    assert triggered[0] == triggered[1]


@pytest.mark.parametrize("name", ["hashmap_tx", "rbtree", "memcached"])
def test_grid_exercises_eviction_findings(name):
    """The grid is only evidence if the oracle finds something in it."""
    report = PerFenceOracle(lambda: get_workload(name),
                            injector=_injector(name),
                            weak_states=True).test(
        get_workload(name).create_image(), CMDS)
    assert any(f.error.startswith("(eviction state)")
               for f in report.crash_findings)


# ----------------------------------------------------------------------
# Fence sample size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fence_count,expected", [
    (15, 15), (16, 16), (31, 31), (32, 16),
])
def test_fence_sample_size(fence_count, expected):
    """``max_crash_images`` sets a stride: up to 2*16-1 fences are sampled."""
    fences = sample_fences(fence_count, 16)
    assert len(fences) == expected
    assert len(fences) <= 2 * 16 - 1
    assert fences[0] == 0 and fences[-1] < fence_count


def test_no_fences_no_sample():
    assert sample_fences(0, 16) == []


# ----------------------------------------------------------------------
# Shared clean replay in the Table-3 evaluation
# ----------------------------------------------------------------------
def _unshared_detections(name, stats, storage):
    """The Table-3 scoring loop with a clean replay per confirm call."""
    return [(bug.bug_id, bug.site in stats.sites_hit,
             bug.site in stats.sites_hit and any(
                 confirm_synthetic_bug(name, bug, storage.load(image_id), data)
                 for image_id, data, _ in stats.site_witness[bug.site]))
            for bug in get_workload(name).synthetic_bugs()]


def test_shared_clean_report_gives_identical_detections(monkeypatch):
    engine = build_engine("hashmap_tx", config_by_name("pmfuzz"))
    stats = engine.run(0.5)

    clean_tests = []
    real_test = TestingTool.test

    def counting_test(self, image, commands, with_crash_images=True):
        if self.injector is None:
            clean_tests.append((image.content_hash(), repr(list(commands))))
        return real_test(self, image, commands, with_crash_images)

    monkeypatch.setattr(TestingTool, "test", counting_test)
    shared = evaluate_synthetic_bugs("hashmap_tx", stats, engine.storage)
    # One clean replay per distinct witness, never a repeat.
    witnesses = {(image_id, data)
                 for d in shared if d.site_covered
                 for image_id, data, _ in stats.site_witness[d.bug.site]}
    assert clean_tests
    assert len(clean_tests) == len(set(clean_tests)) <= len(witnesses)

    shared_clean_tests = len(clean_tests)
    clean_tests.clear()
    unshared = _unshared_detections("hashmap_tx", stats, engine.storage)
    assert ([(d.bug.bug_id, d.site_covered, d.confirmed) for d in shared]
            == unshared)
    assert any(confirmed for _, _, confirmed in unshared)
    assert len(clean_tests) > shared_clean_tests


# ----------------------------------------------------------------------
# Section 5.4 real-bug canary
# ----------------------------------------------------------------------
_BUGGY_WORKLOADS = sorted({b.workload for b in ALL_REAL_BUGS})


def test_real_bug_canary_detects_all_twelve():
    """All 12 §5.4 bugs are found by short fixed-seed campaigns."""
    detected = set()
    for name in _BUGGY_WORKLOADS:
        result = FuzzAndDetectPipeline(name, "pmfuzz",
                                       bugs=buggy_flags_for(name)).run(0.5)
        detected.update(r.bug.number for r in result.real_bugs
                        if r.detected)
    assert detected == set(range(1, 13))
