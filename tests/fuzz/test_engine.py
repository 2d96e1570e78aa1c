"""Tests for the fuzzing engines (AFL++ baseline and PMFuzz)."""

import gc
import os
import weakref

import pytest

from repro.core.config import (
    AFLPP, AFLPP_IMGFUZZ, AFLPP_SYSOPT, PMFUZZ, PMFUZZ_NO_SYSOPT,
)
from repro.core.pmfuzz import PMFuzzEngine, build_engine, run_campaign
from repro.fuzz.engine import FuzzEngine
from repro.fuzz.rng import DeterministicRandom


def small_engine(config, workload="hashmap_tx", seed=1):
    return build_engine(workload, config, rng=DeterministicRandom(seed))


class TestEngineBasics:
    def test_setup_seeds_the_queue(self):
        engine = small_engine(AFLPP)
        engine.setup()
        assert len(engine.queue) >= 1
        assert engine.stats.executions >= 1

    def test_run_respects_budget(self):
        engine = small_engine(AFLPP)
        stats = engine.run(0.5)
        assert engine.vclock >= 0.5
        assert stats.executions > 1

    def test_samples_are_monotone(self):
        stats = small_engine(PMFUZZ).run(1.0)
        pm = [s.pm_paths for s in stats.samples]
        assert pm == sorted(pm)
        times = [s.vtime for s in stats.samples]
        assert times == sorted(times)

    def test_factory_builds_right_class(self):
        assert isinstance(small_engine(PMFUZZ), PMFuzzEngine)
        assert isinstance(small_engine(PMFUZZ_NO_SYSOPT), PMFuzzEngine)
        baseline = small_engine(AFLPP)
        assert isinstance(baseline, FuzzEngine)
        assert not isinstance(baseline, PMFuzzEngine)

    def test_campaign_is_reproducible(self):
        a = run_campaign("hashmap_tx", "pmfuzz", 0.8, seed=99)
        b = run_campaign("hashmap_tx", "pmfuzz", 0.8, seed=99)
        assert a.final_pm_paths == b.final_pm_paths
        assert a.executions == b.executions


class TestPMFuzzBehaviour:
    def test_pmfuzz_generates_images(self):
        stats = small_engine(PMFUZZ).run(1.5)
        assert stats.normal_images_generated > 0
        assert stats.crash_images_generated > 0

    def test_aflpp_generates_no_images(self):
        stats = small_engine(AFLPP_SYSOPT).run(1.5)
        assert stats.normal_images_generated == 0
        assert stats.crash_images_generated == 0

    def test_imgfuzz_mostly_invalid(self):
        stats = small_engine(AFLPP_IMGFUZZ).run(1.0)
        assert stats.invalid_image_runs > stats.executions * 0.8

    def test_pmfuzz_tree_records_lineage(self):
        engine = small_engine(PMFUZZ)
        engine.run(1.5)
        assert engine.tree is not None
        assert len(engine.tree) > 1
        assert engine.tree.crash_image_count() > 0

    def test_site_witness_recorded(self):
        stats = small_engine(PMFUZZ).run(1.0)
        assert stats.site_witness
        for site, witnesses in stats.site_witness.items():
            assert site in stats.sites_hit
            assert 1 <= len(witnesses) <= 3
            # Witnesses are distinct input images for the same site.
            assert len({w[0] for w in witnesses}) == len(witnesses)
            for image_id, data, vtime in witnesses:
                assert isinstance(data, bytes)

    def test_pmfuzz_beats_aflpp_on_pm_paths(self):
        """The headline Figure 13 property, at miniature scale."""
        pmfuzz = run_campaign("hashmap_tx", "pmfuzz", 2.0, seed=5)
        aflpp = run_campaign("hashmap_tx", "aflpp", 2.0, seed=5)
        assert pmfuzz.final_pm_paths > aflpp.final_pm_paths

    def test_sysopt_executes_more(self):
        fast = run_campaign("hashmap_tx", "aflpp_sysopt", 1.0, seed=5)
        slow = run_campaign("hashmap_tx", "aflpp", 1.0, seed=5)
        assert fast.executions > slow.executions


class TestEngineLifetime:
    """A closed campaign is freed when its last reference goes, without
    waiting for the cyclic collector: nothing the engine hands out (the
    supervisor's and the backend's callbacks) refers back to it."""

    @pytest.mark.parametrize("isolation", [
        "none",
        pytest.param("fork", marks=pytest.mark.skipif(
            not hasattr(os, "fork"), reason="requires os.fork")),
    ])
    def test_closed_engine_freed_on_del(self, isolation):
        gc.collect()
        gc.disable()
        try:
            engine = build_engine("hashmap_tx", PMFUZZ,
                                  rng=DeterministicRandom(1),
                                  isolation=isolation)
            engine.run(0.3)
            engine.close()
            assert engine.stats.isolation_backend == isolation
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()
