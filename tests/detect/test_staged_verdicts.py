"""Staged detection verdicts equal the full battery's.

The battery has a main stage (traced run, Pmemcheck, oracle) and a crash
stage (snapshot pass plus XFDetector).  ``confirm_synthetic_bug`` and
``FuzzAndDetectPipeline`` run the crash stage only when the main stage
leaves the verdict open.  The references here run the full battery on
every call, as both flows once did: verdicts, the injector's triggered
set, and the §5.4 detection records must agree exactly.
"""

import dataclasses
from collections import Counter

import pytest

import repro.core.pipeline as pipeline
from repro.core.config import config_by_name
from repro.core.pipeline import (
    FuzzAndDetectPipeline, _confirm_commands, clean_witness_report,
    confirm_synthetic_bug,
)
from repro.core.pmfuzz import build_engine
from repro.detect.report import TestingTool
from repro.fuzz.rng import DeterministicRandom
from repro.workloads import get_workload
from repro.workloads.mapcli import parse_commands
from repro.workloads.realbugs import ALL_REAL_BUGS, buggy_flags_for
from repro.workloads.registry import workload_names
from repro.workloads.synthetic import BugInjector

_CRASH_PREFIX = "crash@fence"


def _full_confirm(name, bug, image, data):
    """The confirmation verdict from two full-battery reports."""
    commands = _confirm_commands(data)
    clean = TestingTool(lambda: get_workload(name)).test(image, commands)
    injector = BugInjector([bug])
    buggy = TestingTool(lambda: get_workload(name),
                        injector=injector).test(image, commands)
    if bug.bug_id not in injector.triggered:
        return False, set(injector.triggered)
    new = (set(buggy.crash_consistency_findings)
           - set(clean.crash_consistency_findings))
    return (bool(new) or buggy.outputs != clean.outputs,
            set(injector.triggered))


def _campaign(name, **options):
    engine = build_engine(name, config_by_name("pmfuzz"), **options)
    return engine, engine.run(0.5)


@pytest.mark.parametrize("name", workload_names())
def test_staged_confirmation_matches_full_battery(name, monkeypatch):
    """Every covered bug × witness of a 0.5-vsec PMFuzz campaign."""
    injectors = []

    def recording_injector(bugs):
        injectors.append(BugInjector(bugs))
        return injectors[-1]

    monkeypatch.setattr(pipeline, "BugInjector", recording_injector)
    engine, stats = _campaign(name)
    clean_reports = {}
    pairs = confirmed = 0
    for bug in get_workload(name).synthetic_bugs():
        if bug.site not in stats.sites_hit:
            continue
        for image_id, data, _ in stats.site_witness[bug.site]:
            image = engine.storage.load(image_id)
            clean = clean_reports.get((image_id, data))
            if clean is None:
                clean = clean_witness_report(name, image, data)
                clean_reports[(image_id, data)] = clean
            staged = confirm_synthetic_bug(name, bug, image, data,
                                           clean_report=clean)
            expected, triggered = _full_confirm(name, bug, image, data)
            assert (staged, injectors[-1].triggered) == \
                (expected, triggered), (bug.bug_id, image_id, data)
            pairs += 1
            confirmed += staged
    assert pairs and confirmed


def _always_full(monkeypatch):
    real_test = TestingTool.test

    def full_test(self, image, commands, with_crash_images=True):
        return real_test(self, image, commands)

    monkeypatch.setattr(TestingTool, "test", full_test)


def _detections(result):
    return ([(r.bug.number, r.detected, r.first_detection_vtime,
              r.detecting_entry) for r in result.real_bugs],
            result.test_cases_checked)


@pytest.mark.parametrize("name", sorted({b.workload for b in ALL_REAL_BUGS}))
def test_staged_pipeline_matches_full_battery(name, monkeypatch):
    """The §5.4 canary's campaigns detect the same bugs, at the same
    virtual time and entry, as with the crash stage on every entry."""
    def run():
        return FuzzAndDetectPipeline(name, "pmfuzz",
                                     bugs=buggy_flags_for(name)).run(0.5)

    staged = _detections(run())
    _always_full(monkeypatch)
    assert staged == _detections(run())
    assert any(detected for _, detected, _, _ in staged[0])


def _main_stage_findings(report):
    return dataclasses.replace(report,
                               crash_findings=[]).crash_consistency_findings


@pytest.mark.parametrize("name", workload_names())
def test_crash_findings_never_match_main_stage_findings(name):
    """The exactness argument's premise: crash-stage findings carry a
    prefix that no main-stage finding has."""
    wl = get_workload(name)
    commands = parse_commands(b"i 5 1\ni 9 2\ni 13 3\ng 5\nr 9\ni 21 4\n"
                              b"q\nn\nm\n")
    reports = []
    for bugs in {frozenset(), buggy_flags_for(name)}:
        image = get_workload(name, bugs=bugs).create_image()
        for synthetic in [None, *wl.synthetic_bugs()]:
            injector = BugInjector([synthetic]) if synthetic else None
            tool = TestingTool(lambda: get_workload(name, bugs=bugs),
                               injector=injector, weak_states=True)
            reports.append(tool.test(image, commands))
    crash = [f.describe() for r in reports for f in r.crash_findings]
    main = [f for r in reports for f in _main_stage_findings(r)]
    assert crash and main
    assert all(f.startswith(_CRASH_PREFIX) for f in crash)
    assert not any(f.startswith(_CRASH_PREFIX) for f in main)


def test_crash_stage_runs_only_for_open_verdicts(monkeypatch):
    """On hashmap_tx's Table-3 scoring: the clean crash stage runs at
    most once per witness, and the crash stage runs exactly for the
    confirm calls whose main stage leaves the verdict open."""
    # A seed whose scoring has calls of both kinds.
    engine, stats = _campaign("hashmap_tx", rng=DeterministicRandom(2))
    real_test = TestingTool.test
    real_crash = TestingTool.check_crash_states
    real_confirm = pipeline.confirm_synthetic_bug
    calls = []
    clean_crash_runs = Counter()

    def recording_test(self, image, commands, with_crash_images=True):
        report = real_test(self, image, commands, with_crash_images)
        if self.injector is not None:
            # The main stage's answer, taken before any crash stage.
            calls[-1]["main"] = (set(self.injector.triggered),
                                 report.crash_consistency_findings,
                                 report.outputs)
        return report

    def recording_crash(self, report, image, commands):
        if not report.crash_checked:
            if self.injector is None:
                clean_crash_runs[(image.content_hash(),
                                  repr(list(commands)))] += 1
            else:
                calls[-1]["buggy_crash"] = True
        real_crash(self, report, image, commands)

    def recording_confirm(name, bug, image, data, clean_report=None):
        calls.append({"bug": bug, "clean": clean_report,
                      "buggy_crash": False})
        return real_confirm(name, bug, image, data, clean_report)

    monkeypatch.setattr(TestingTool, "test", recording_test)
    monkeypatch.setattr(TestingTool, "check_crash_states", recording_crash)
    monkeypatch.setattr(pipeline, "confirm_synthetic_bug", recording_confirm)
    pipeline.evaluate_synthetic_bugs("hashmap_tx", stats, engine.storage)

    assert calls
    assert clean_crash_runs and set(clean_crash_runs.values()) == {1}
    open_calls = 0
    for call in calls:
        triggered, findings, outputs = call["main"]
        clean = call["clean"]
        # Main-stage differences survive the crash stage, so comparing
        # against the clean report as it stands now is exact.
        decided = call["bug"].bug_id in triggered and (
            bool(set(findings) - set(clean.crash_consistency_findings))
            or outputs != clean.outputs)
        assert call["buggy_crash"] == (not decided), call["bug"].bug_id
        open_calls += not decided
    assert 0 < open_calls < len(calls)
