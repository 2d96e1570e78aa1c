"""Tests for the XFDetector-like cross-failure checker."""

import pytest

from repro.detect.xfdetector import XFDetector, check_oracle
from repro.pmem.image import PMImage
from repro.workloads import get_workload
from repro.workloads.base import RunOutcome
from repro.workloads.mapcli import parse_commands

CMDS = parse_commands(b"i 5 1\ni 9 2\ni 13 3\nr 9\n")


def crash_images_of(name, bugs=frozenset(), commands=CMDS):
    """All strict crash images of one run, with their fence indices."""
    wl = get_workload(name, bugs=bugs)
    seed = wl.create_image()
    total = get_workload(name, bugs=bugs).run(seed, commands).fence_count
    images = []
    for fence in range(total):
        r = get_workload(name, bugs=bugs).run(seed, commands,
                                              crash_at_fence=fence)
        if r.crash_image is not None:
            images.append((fence, r.crash_image))
    return images


class TestFixedWorkloadsSurviveAllCrashes:
    @pytest.mark.parametrize("name", ["hashmap_tx", "hashmap_atomic"])
    def test_no_findings_on_fixed_variant(self, name):
        detector = XFDetector(lambda: get_workload(name))
        for fence, image in crash_images_of(name)[::3]:
            finding = detector.check_image(image, fence_index=fence)
            assert not finding.is_bug, (name, fence, finding.describe())


class TestBug1Through5:
    @pytest.mark.parametrize("name", ["hashmap_tx", "btree", "rbtree",
                                      "rtree", "skiplist"])
    def test_init_not_retried_detected(self, name):
        bugs = frozenset({"init_not_retried"})
        detector = XFDetector(lambda: get_workload(name, bugs=bugs))
        findings = [
            detector.check_image(img, fence_index=f)
            for f, img in crash_images_of(name, bugs=bugs)
        ]
        segfaults = [f for f in findings
                     if f.outcome is RunOutcome.SEGFAULT]
        assert segfaults, f"{name}: no crash image exposed the NULL deref"

    def test_fixed_driver_recreates_after_crash(self):
        detector = XFDetector(lambda: get_workload("hashmap_tx"))
        for fence, image in crash_images_of("hashmap_tx"):
            finding = detector.check_image(image, fence_index=fence)
            assert finding.outcome is RunOutcome.OK, finding.describe()


class TestBug6:
    def test_no_recovery_call_detected_via_oracle(self):
        bugs = frozenset({"bug6_no_recovery_call"})
        detector = XFDetector(
            lambda: get_workload("hashmap_atomic", bugs=bugs))
        findings = [
            detector.check_image(img, fence_index=f)
            for f, img in crash_images_of("hashmap_atomic", bugs=bugs)
        ]
        buggy = [f for f in findings if f.is_bug]
        assert buggy, "no crash image exposed the stale count"
        assert any("count" in v for f in buggy for v in f.violations)

    def test_fixed_variant_recovers_dirty_window(self):
        detector = XFDetector(lambda: get_workload("hashmap_atomic"))
        for fence, image in crash_images_of("hashmap_atomic"):
            finding = detector.check_image(image, fence_index=fence)
            assert not finding.is_bug, (fence, finding.describe())


class TestSharedOracle:
    def test_oracle_that_raises_is_one_violation(self):
        # Both detection stages render a raising oracle through
        # check_oracle; findings are compared as strings.
        wl = get_workload("hashmap_tx")
        image = wl.create_image()
        garbage = PMImage(layout=image.layout,
                          payload=bytearray(b"\xff" * len(image.payload)),
                          uuid=image.uuid)
        (violation,) = check_oracle(wl, garbage)
        assert violation.startswith("oracle raised: ")
