"""Campaign-level isolation guarantees (the ISSUE acceptance criteria).

* **Equivalence** — a seeded campaign run under ``--isolation=fork``
  produces coverage, queue contents, and statistics bit-identical to the
  same campaign in-process (``FuzzStats.comparable()`` is the contract).
* **Watchdog** — a genuinely runaway target (a true infinite loop that
  virtual time can never interrupt) is SIGKILLed at the wall deadline,
  triaged to disk, charged as a timeout, and the campaign *continues*.
* **Frame contents** — a ``run`` job ships its input image as an
  object, and a reply carries an execution's final image only in a
  campaign that reads it (indirect image fuzzing), while planned
  children still ship in batches.
"""

import math
import os

import pytest

import repro.isolation.pool as pool_mod
from repro.cli import main
from repro.core.config import PMFUZZ, RunConfig, config_by_name
from repro.core.pmfuzz import build_engine, run_campaign
from repro.core.storage import TriageStore
from repro.fuzz.engine import FuzzEngine
from repro.fuzz.rng import DeterministicRandom
from repro.pmem.image import PMImage
from repro.resilience.checkpoint import resume_campaign
from repro.workloads import get_workload
from repro.workloads.base import RunOutcome

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="requires os.fork")


def _engine(isolation, seed=9, **kwargs):
    return build_engine(
        "hashmap_tx", PMFUZZ,
        rng=DeterministicRandom(seed).fork("hashmap_tx/det"),
        isolation=isolation, **kwargs)


class TestBackendEquivalence:
    def test_fork_campaign_is_bit_identical_to_in_process(self, tmp_path):
        baseline = _engine("none")
        base_stats = baseline.run(0.4)

        forked = _engine("fork", triage_dir=str(tmp_path / "triage"))
        fork_stats = forked.run(0.4)

        assert base_stats.isolation_backend == "none"
        assert fork_stats.isolation_backend == "fork"
        assert fork_stats.comparable() == base_stats.comparable()
        assert forked.pm_cov.virgin == baseline.pm_cov.virgin
        assert forked.branch_cov.virgin == baseline.branch_cov.virgin
        assert [e.data for e in forked.queue.entries] == \
            [e.data for e in baseline.queue.entries]
        assert [e.image_id for e in forked.queue.entries] == \
            [e.image_id for e in baseline.queue.entries]
        # A clean campaign never trips the isolation machinery.
        assert fork_stats.watchdog_kills == 0
        assert fork_stats.worker_crashes == 0

    def test_fault_injected_campaigns_agree_across_backends(self, tmp_path):
        base = run_campaign("hashmap_tx", "pmfuzz", 0.4, seed=42,
                            fault_plan="all:0.02")
        fork = run_campaign("hashmap_tx", "pmfuzz", 0.4, seed=42,
                            fault_plan="all:0.02", isolation="fork",
                            triage_dir=str(tmp_path / "triage"))
        assert fork.comparable() == base.comparable()
        assert base.harness_faults > 0  # the plan actually fired

    def test_worker_recycling_does_not_change_results(self, tmp_path):
        churning = _engine("fork", worker_max_execs=5,
                           triage_dir=str(tmp_path / "t1"))
        churn_stats = churning.run(0.4)
        steady = _engine("fork", triage_dir=str(tmp_path / "t2"))
        steady_stats = steady.run(0.4)
        assert churn_stats.worker_recycles > 0
        assert churn_stats.comparable() == steady_stats.comparable()

    def test_checkpointed_fork_campaign_resumes_identically(self, tmp_path):
        path = str(tmp_path / "fork.ckpt")
        baseline = run_campaign("hashmap_tx", "pmfuzz", 0.6, seed=17,
                                isolation="fork",
                                triage_dir=str(tmp_path / "t1"))
        partial = run_campaign("hashmap_tx", "pmfuzz", 0.6, seed=17,
                               isolation="fork",
                               triage_dir=str(tmp_path / "t2"),
                               checkpoint_every=0.2, checkpoint_path=path)
        assert partial == baseline
        resumed = resume_campaign(path).run(0.6)
        # The checkpoint carries the backend config; the resumed engine
        # re-resolved it (fork is available here, so it stays fork).
        assert resumed.isolation_backend == "fork"
        assert resumed == baseline


def _replies(frame):
    """The per-job replies inside one reply frame (batch or single)."""
    return list(frame[1]) if frame[0] == "batch" else [frame]


def _jobs(frame):
    """The per-job tuples inside one job frame (batch or single)."""
    return list(frame[1]) if frame[0] == "batch" else [frame[1:]]


class TestFrameContents:
    def _spied_campaign(self, monkeypatch, tmp_path, workload, config_name):
        """Run one fork campaign with the parent's pipe frames recorded.

        Returns ``(engine, stats, sent, replies, events)``: the job
        frames written, the reply frames read, and the order of the
        backend's ``plan`` and ``run`` calls.
        """
        sent, replies, events = [], [], []
        real_read, real_write = pool_mod.read_frame, pool_mod.write_frame

        def read_spy(fd, deadline=None):
            frame = real_read(fd, deadline=deadline)
            replies.append(frame)
            return frame

        def write_spy(fd, frame):
            sent.append(frame)
            real_write(fd, frame)

        monkeypatch.setattr(pool_mod, "read_frame", read_spy)
        monkeypatch.setattr(pool_mod, "write_frame", write_spy)
        engine = build_engine(
            workload, config_by_name(config_name),
            rng=DeterministicRandom(5).fork(f"{workload}/det"),
            isolation="fork", triage_dir=str(tmp_path / "triage"))
        backend = engine.backend
        real_plan, real_run = backend.plan, backend.run

        def plan(jobs):
            events.append("plan")
            real_plan(jobs)

        def run(*args, **kwargs):
            events.append("run")
            return real_run(*args, **kwargs)

        backend.plan, backend.run = plan, run
        stats = engine.run(0.3)
        return engine, stats, sent, replies, events

    @staticmethod
    def _in_process(workload, config_name):
        return build_engine(
            workload, config_by_name(config_name),
            rng=DeterministicRandom(5).fork(f"{workload}/det"),
            isolation="none").run(0.3)

    def test_aflpp_replies_carry_no_final_image(self, monkeypatch,
                                                 tmp_path):
        engine, stats, sent, replies, events = self._spied_campaign(
            monkeypatch, tmp_path, "btree", "aflpp_sysopt")
        assert stats.comparable() == \
            self._in_process("btree", "aflpp_sysopt").comparable()

        results = [r[1] for frame in replies for r in _replies(frame)]
        assert results and all(r.outcome is not None for r in results)
        assert not any(isinstance(r.final_image, PMImage) for r in results)
        # The job half: every run job carries the image object.  (A
        # budget-truncated last batch runs a few jobs never consumed.)
        jobs = [job for frame in sent for job in _jobs(frame)]
        assert len(jobs) == len(results) >= stats.executions
        assert all(kind == "run" and isinstance(image, PMImage)
                   for kind, image, _, _ in jobs)

        # Planned children still batch: each round's k executed
        # children cost ceil(k / batch) dispatches, and the seed
        # executions (setup, unplanned) one dispatch each.
        rounds, setup_runs = [], 0
        for event in events:
            if event == "plan":
                rounds.append(0)
            elif rounds:
                rounds[-1] += 1
            else:
                setup_runs += 1
        batch = engine.backend.batch_execs
        assert batch > 1 and len(rounds) > 1
        assert len(replies) == setup_runs + sum(
            math.ceil(k / batch) for k in rounds)
        assert len(replies) < stats.executions

    def test_pmfuzz_ok_replies_keep_their_final_image(self, monkeypatch,
                                                       tmp_path):
        _, stats, _, replies, _ = self._spied_campaign(
            monkeypatch, tmp_path, "hashmap_tx", "pmfuzz")
        assert stats.comparable() == \
            self._in_process("hashmap_tx", "pmfuzz").comparable()
        ok = [r[1] for frame in replies for r in _replies(frame)
              if r[0] == "ok" and r[1].outcome is RunOutcome.OK]
        assert ok
        assert all(isinstance(r.final_image, PMImage) for r in ok)


class HangOnKey4(type(get_workload("hashmap_tx"))):
    """hashmap_tx, except inserting key 4 never returns.

    Key 4 appears in the first default seed input, so every campaign
    hits the hang immediately — the in-process backend would wedge
    forever, which is precisely what the fork watchdog exists for.
    """

    def exec_command(self, pool, cmd):
        if cmd.op == "i" and cmd.key == 4:
            while True:
                pass
        return super().exec_command(pool, cmd)


class TestWatchdogInCampaign:
    def test_runaway_target_is_reaped_and_campaign_continues(
            self, tmp_path, monkeypatch, capsys):
        triage_dir = str(tmp_path / "triage")
        engine = FuzzEngine(
            lambda: HangOnKey4(), PMFUZZ,
            RunConfig(isolation="fork", exec_wall_timeout=0.4,
                      triage_dir=triage_dir),
            rng=DeterministicRandom(3).fork("hang/det"))
        # Bundle metadata names a registry workload, which the replay
        # below resolves to the hanging variant.
        engine.campaign_meta = {
            "workload": "hashmap_tx", "config": "pmfuzz", "bugs": [],
            "engine_kwargs": engine.run_config.options()}
        stats = engine.run(0.4)

        # The infinite loop was killed at the wall deadline...
        assert stats.watchdog_kills >= 1
        # ...charged through the existing timeout accounting...
        assert stats.timeouts >= 1
        assert stats.harness_faults >= 1
        # ...triaged to disk...
        bundles = TriageStore(triage_dir).list_bundles()
        assert len(bundles) >= 1
        bundle = TriageStore.load_bundle(bundles[0])
        assert bundle.meta["reason"] == "watchdog-timeout"
        assert bundle.meta["engine_kwargs"] == {
            "isolation": "fork", "exec_wall_timeout": 0.4,
            "triage_dir": triage_dir}
        assert b"i 4" in bundle.data
        # The run job shipped an image object; the bundle still holds
        # the input image's serialized bytes, valid and exact.
        seed_bytes = HangOnKey4().create_image().to_bytes()
        assert PMImage.from_bytes(bundle.image_bytes).to_bytes() \
            == seed_bytes
        assert bundle.image_bytes == seed_bytes
        # ...and the campaign kept going: the second seed (no key 4)
        # and its mutants executed normally to budget exhaustion.
        assert stats.executions > stats.watchdog_kills
        assert stats.final_pm_paths > 0
        assert stats.stop_reason == "budget"
        # run() shut the pool down on exit; no workers leaked.
        assert engine.backend.pool.live_workers == 0

        # Replaying the bundle reaches the watchdog again.
        monkeypatch.setattr("repro.workloads.registry.get_workload",
                            lambda name, bugs=frozenset(): HangOnKey4())
        capsys.readouterr()
        assert main(["triage", "--replay", bundles[0],
                     "--exec-wall-timeout", "0.4"]) == 1
        assert "reproduced: hang" in capsys.readouterr().out
