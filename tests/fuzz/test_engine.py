"""Tests for the fuzzing engine under the Table-2 configurations."""

import gc
import os
import weakref

import pytest

from repro.core.config import (
    AFLPP, AFLPP_IMGFUZZ, AFLPP_SYSOPT, CONFIGS, PMFUZZ, PMFUZZ_NO_SYSOPT,
    ImgFuzzMode,
)
from repro.core.pmfuzz import build_engine, run_campaign
from repro.fuzz.engine import FuzzEngine
from repro.fuzz.executor import CostModel
from repro.fuzz.rng import DeterministicRandom
from repro.workloads import get_workload


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

    def test_factory_switches_features_by_configuration(self):
        # PM-path priority and image generation follow the Table-2 row:
        # the PMFuzz configurations favor PM-novel test cases and
        # generate crash and normal images; AFL++ does neither.
        for config in (PMFUZZ, PMFUZZ_NO_SYSOPT, AFLPP):
            engine = small_engine(config)
            stats = engine.run(0.4)
            indirect = config.img_fuzz is ImgFuzzMode.INDIRECT
            assert (stats.crash_images_generated > 0) == indirect
            assert (stats.normal_images_generated > 0) == indirect
            assert any(e.favored for e in engine.queue.entries) \
                == config.pm_path_opt

    def test_hand_built_engine_equals_factory_engine(self):
        """The configuration, not the factory, switches the PMFuzz
        features on: a hand-built engine runs the same campaign."""
        built = build_engine("hashmap_tx", PMFUZZ,
                             rng=DeterministicRandom(1)).run(0.5)
        hand = FuzzEngine(lambda: get_workload("hashmap_tx"), PMFUZZ,
                          rng=DeterministicRandom(1)).run(0.5)
        assert hand.crash_images_generated > 0
        assert hand.comparable() == built.comparable()

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



@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_engine_setup_follows_the_table2_row(config):
    """Final images, store compression and the cost model all derive
    from the configuration's Table-2 row, whoever builds the engine."""
    factory = small_engine(config)
    hand = FuzzEngine(lambda: get_workload("hashmap_tx"), config)
    for engine in (factory, hand):
        assert engine.executor.keep_final_image == (
            config.img_fuzz is ImgFuzzMode.INDIRECT)
        assert engine.storage.store.compress == config.sys_opt
        assert engine.cost_model == CostModel(sys_opt=config.sys_opt)
        assert engine.executor.cost_model is engine.cost_model
        engine.close()


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
