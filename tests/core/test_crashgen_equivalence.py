"""The crash-generation equivalence grid: single-pass crash harvesting
is indistinguishable from the paper's literal per-point re-execution.

The re-execution loop is no longer selectable; it is the generator's
fallback path, and these tests call it directly
(``CrashImageGenerator._generate_reexec``) as the oracle.

Contract under test:

* byte-identical crash images, for both ordering-point and
  probabilistic store-point failures, with identical provenance and
  identical virtual-time cost per image;
* ``FuzzStats.comparable()``-identical campaigns across isolation
  none/fork;
* graceful degradation: a harness fault during the single pass falls
  back to the supervised per-point re-execution path.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import PMFUZZ
from repro.core.crashgen import CrashImageGenerator
from repro.core.pmfuzz import build_engine, run_campaign
from repro.fuzz.executor import ExecResult, Executor
from repro.fuzz.rng import DeterministicRandom
from repro.resilience.supervisor import SupervisedExecutor
from repro.workloads import get_workload
from repro.workloads.base import RunOutcome

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="requires os.fork")

CASE_DATA = b"i 10 1\ni 20 2\ni 30 3\nr 20\ni 40 4\n"


def _seed_case(workload_name):
    executor = Executor(lambda: get_workload(workload_name))
    image = get_workload(workload_name).create_image()
    parent = executor.run(image, CASE_DATA)
    assert parent.outcome is RunOutcome.OK
    return executor, image, parent


def _reexec_through(gen):
    """Route ``gen.generate`` to the per-point re-execution oracle."""
    gen._generate_singlepass = gen._generate_reexec
    return gen


def _generate(executor, image, parent, mode, seed=11, extra_rate=1.0):
    gen = CrashImageGenerator(executor, DeterministicRandom(seed),
                              max_ordering_points=4, extra_rate=extra_rate)
    if mode == "reexec":
        _reexec_through(gen)
    return gen.generate(image, CASE_DATA, parent.fence_count,
                        parent.store_count)


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("workload", ["btree", "hashmap_tx"])
    def test_byte_identical_images_and_costs(self, workload):
        executor, image, parent = _seed_case(workload)
        single = _generate(executor, image, parent, "singlepass")
        reexec = _generate(executor, image, parent, "reexec")
        assert len(single) == len(reexec) > 0
        # extra_rate=1.0 guarantees both families are exercised.
        assert any(c.probabilistic for c in single)
        assert any(not c.probabilistic for c in single)
        for s, r in zip(single, reexec):
            assert s.fence_index == r.fence_index
            assert s.probabilistic == r.probabilistic
            assert s.cost == r.cost
            assert bytes(s.image.payload) == bytes(r.image.payload)
            assert s.image.to_bytes() == r.image.to_bytes()

    def test_supervised_executor_equivalence(self):
        _, image, parent = _seed_case("btree")
        raw = Executor(lambda: get_workload("btree"))
        supervised = SupervisedExecutor(raw)
        single = _generate(supervised, image, parent, "singlepass")
        reexec = _generate(supervised, image, parent, "reexec")
        assert [bytes(c.image.payload) for c in single] == \
            [bytes(c.image.payload) for c in reexec]
        assert [c.cost for c in single] == [c.cost for c in reexec]


class TestFaultDegradation:
    def test_single_pass_fault_falls_back_to_reexec(self, monkeypatch):
        """A HARNESS_FAULT on the snapshot-planned execution must not
        lose the crash images: generation degrades to the legacy
        per-point loop (which runs through the supervised retry path)."""
        executor, image, parent = _seed_case("btree")
        oracle = _generate(executor, image, parent, "reexec")

        real_run = executor.run

        def faulting_run(img, data, *args, **kwargs):
            if kwargs.get("snapshot_plan") is not None:
                return ExecResult(outcome=RunOutcome.HARNESS_FAULT,
                                  cost=0.0, error="injected")
            return real_run(img, data, *args, **kwargs)

        monkeypatch.setattr(executor, "run", faulting_run)
        degraded = _generate(executor, image, parent, "singlepass")
        assert [bytes(c.image.payload) for c in degraded] == \
            [bytes(c.image.payload) for c in oracle]
        assert [c.cost for c in degraded] == [c.cost for c in oracle]

    def test_campaign_with_env_faults_survives_singlepass(self):
        """Crash generation under an armed fault plan still completes
        the campaign (faults absorbed by the supervisor either on the
        single pass or on the fallback path)."""
        stats = run_campaign("btree", "pmfuzz", 0.4,
                             fault_plan="exec-fault:0.1")
        assert stats.executions > 0
        assert stats.harness_faults > 0  # the plan really fired
        assert stats.stop_reason == "budget"


class TestCampaignGridEquivalence:
    def _solo(self, isolation, crashgen, tmp_path, name):
        kwargs = {}
        if isolation == "fork":
            kwargs["triage_dir"] = str(tmp_path / name / "triage")
        engine = build_engine(
            "hashmap_tx", PMFUZZ,
            rng=DeterministicRandom(7).fork("hashmap_tx/grid"),
            isolation=isolation, **kwargs)
        if crashgen == "reexec":
            _reexec_through(engine.crashgen)
        stats = engine.run(0.4)
        queue = sorted((e.data, e.image_id) for e in engine.queue.entries)
        return stats, queue

    @pytest.mark.parametrize("isolation", [
        "none", pytest.param("fork", marks=needs_fork)])
    def test_solo_stats_identical(self, tmp_path, isolation):
        base, base_queue = self._solo("none", "reexec", tmp_path, "base")
        stats, queue = self._solo(isolation, "singlepass", tmp_path, "sp")
        assert stats.comparable() == base.comparable()
        assert queue == base_queue
        # The vtime ledger itself is part of the contract: identical
        # crashgen stage attribution either way.
        assert stats.metrics == base.metrics
        assert "stage_vtime/crashgen" in stats.metrics
