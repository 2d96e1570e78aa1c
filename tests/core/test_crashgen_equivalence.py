"""The crash-generation equivalence grid: single-pass crash harvesting
is indistinguishable from the paper's literal per-point re-execution.

The re-execution loop is not part of the program any more; the oracle
below rebuilds it from ``Workload.run(crash_at_*)``, one crashing run
per selected failure point, charged as the executor charges a run.

Contract under test:

* byte-identical crash images, for both ordering-point and
  probabilistic store-point failures, with identical provenance and
  identical virtual-time cost per image;
* ``FuzzStats.comparable()``-identical campaigns across isolation
  none/fork;
* a single pass that fails after the supervisor's retries yields no
  crash images, and the campaign goes on;
* what the supervisor spent on the single pass is charged to the
  ``crashgen`` stage.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import PMFUZZ
from repro.core.crashgen import CrashImage, CrashImageGenerator, CrashImages
from repro.core.pmfuzz import build_engine, run_campaign
from repro.errors import HarnessFaultError
from repro.fuzz.executor import ExecResult, Executor
from repro.fuzz.rng import DeterministicRandom
from repro.instrument.context import ExecutionContext, push_context
from repro.pmem.crash import CrashSnapshot
from repro.resilience.supervisor import SupervisedExecutor
from repro.workloads import get_workload
from repro.workloads.base import RunOutcome
from repro.workloads.mapcli import parse_commands

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
    """Route ``gen.generate`` to a per-point re-execution loop."""
    raw = getattr(gen.executor, "executor", gen.executor)
    cost_model = gen.executor.cost_model

    def per_point(image, data, fences, stores):
        cmds = parse_commands(data, max_commands=raw.max_commands)
        crash_images = CrashImages()
        points = ([("fence", fence, fence) for fence in fences]
                  + [("store", store, -1) for store in stores])
        for kind, index, fence_index in points:
            with push_context(ExecutionContext()):
                result = raw.workload_factory().run(
                    image, cmds, **{f"crash_at_{kind}": index})
            if result.outcome is not RunOutcome.CRASHED:
                continue
            snap = CrashSnapshot(kind, index, result.fence_count,
                                 result.crash_image.payload)
            crash_images.append(CrashImage(
                snap, image, fence_index=fence_index,
                probabilistic=kind == "store",
                cost=cost_model.execution(len(cmds), result.fence_count,
                                          len(image)),
            ))
        return crash_images

    gen._generate_singlepass = per_point
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
        assert single.overhead == 0.0

    def test_supervised_executor_equivalence(self):
        _, image, parent = _seed_case("btree")
        raw = Executor(lambda: get_workload("btree"))
        supervised = SupervisedExecutor(raw)
        single = _generate(supervised, image, parent, "singlepass")
        reexec = _generate(supervised, image, parent, "reexec")
        assert [bytes(c.image.payload) for c in single] == \
            [bytes(c.image.payload) for c in reexec]
        assert [c.cost for c in single] == [c.cost for c in reexec]
        assert single.overhead == 0.0


def _fault_snapshot_runs(engine, monkeypatch, times, transient):
    """Make the engine's backend raise on its next ``times`` planned runs."""
    backend = engine.supervisor.backend
    real_run = backend.run
    left = [times]

    def run(image, data, **kwargs):
        if kwargs.get("snapshot_plan") is not None and left[0]:
            left[0] -= 1
            raise HarnessFaultError("injected", site="exec-fault",
                                    transient=transient)
        return real_run(image, data, **kwargs)

    monkeypatch.setattr(backend, "run", run)


def _engine():
    return build_engine("btree", PMFUZZ,
                        rng=DeterministicRandom(3).fork("btree/faults"))


def _crashgen_vtime(engine):
    engine._snapshot_metrics()
    return engine.stats.metrics["stage_vtime/crashgen"]


class TestFaultDegradation:
    def test_failed_single_pass_yields_no_images(self, monkeypatch):
        """A single pass that fails yields ``[]`` and reports what it
        was charged."""
        executor, image, parent = _seed_case("btree")
        real_run = executor.run

        def faulting_run(img, data, **kwargs):
            if kwargs.get("snapshot_plan") is not None:
                return ExecResult(outcome=RunOutcome.HARNESS_FAULT,
                                  cost=0.25, error="injected")
            return real_run(img, data, **kwargs)

        monkeypatch.setattr(executor, "run", faulting_run)
        failed = _generate(executor, image, parent, "singlepass")
        assert failed == []
        assert failed.overhead == 0.25

    def test_campaign_goes_on_without_crash_images(self, monkeypatch):
        engine = _engine()
        _fault_snapshot_runs(engine, monkeypatch, times=10 ** 9,
                             transient=False)
        stats = engine.run(0.4)
        assert stats.stop_reason == "budget"
        assert stats.executions > 0
        assert stats.harness_faults > 0
        assert stats.crash_images_generated == 0
        assert stats.normal_images_generated > 0

    def test_retried_single_pass_charges_its_recovery(self, monkeypatch):
        """One transient fault on one single pass costs the crashgen
        stage (and the clock) exactly the supervisor's retry price."""
        clean, faulted = _engine(), _engine()
        _fault_snapshot_runs(faulted, monkeypatch, times=1, transient=True)
        clean.setup()    # the seed inputs are PM-novel: crash generation
        faulted.setup()  # runs for each of them
        assert faulted.stats.retries == 1
        cost_model = faulted.supervisor.cost_model
        price = cost_model.fault_overhead + cost_model.retry_backoff(1)
        assert _crashgen_vtime(faulted) - _crashgen_vtime(clean) == \
            pytest.approx(price, abs=1e-12)
        assert faulted.vclock - clean.vclock == \
            pytest.approx(price, abs=1e-12)
        assert faulted.stats.crash_images_generated == \
            clean.stats.crash_images_generated

    def test_campaign_with_env_faults_survives_singlepass(self):
        """Crash generation under an armed fault plan still completes
        the campaign (faults absorbed by the supervisor on the single
        pass)."""
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
