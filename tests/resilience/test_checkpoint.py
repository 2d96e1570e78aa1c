"""Checkpoint file format, atomicity, and resume determinism.

The headline invariant (ISSUE acceptance criterion): a campaign killed
at an arbitrary execution and resumed from its last checkpoint produces
final stats, coverage bitmaps, and queue order byte-identical to the
same campaign run uninterrupted.
"""

import os

import pytest

from repro.core.config import PMFUZZ
from repro.core.pmfuzz import run_campaign
from repro.errors import CheckpointError
from repro.fuzz.engine import FuzzEngine
from repro.fuzz.rng import DeterministicRandom
from repro.resilience.checkpoint import (FORMAT_VERSION, read_checkpoint,
                                         resume_campaign, write_checkpoint)


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        payload = {"version": FORMAT_VERSION, "data": [1, 2, 3],
                   "blob": b"\x00\xff"}
        write_checkpoint(path, payload)
        assert read_checkpoint(path) == payload

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        write_checkpoint(path, {"version": FORMAT_VERSION})
        assert os.listdir(tmp_path) == ["c.ckpt"]

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        write_checkpoint(path, {"version": FORMAT_VERSION, "gen": 1})
        write_checkpoint(path, {"version": FORMAT_VERSION, "gen": 2})
        assert read_checkpoint(path)["gen"] == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_non_checkpoint_file_raises(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"this is not a checkpoint at all")
        with pytest.raises(CheckpointError):
            read_checkpoint(str(path))

    def test_corruption_is_detected(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        write_checkpoint(path, {"version": FORMAT_VERSION,
                                "data": list(range(100))})
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x40  # flip one bit mid-payload
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(str(path))

    def test_truncation_is_detected(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        write_checkpoint(path, {"version": FORMAT_VERSION,
                                "data": list(range(100))})
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-7])
        with pytest.raises(CheckpointError):
            read_checkpoint(str(path))

    def test_unknown_version_raises(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        write_checkpoint(path, {"version": 999})
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(str(path))

    def test_unserializable_payload_raises(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        with pytest.raises(CheckpointError):
            write_checkpoint(path, {"version": FORMAT_VERSION,
                                    "bad": lambda: None})
        assert not os.path.exists(path)


class Boom(Exception):
    """Simulated hard kill (power loss / SIGKILL analogue)."""


class TestResumeDeterminism:
    def test_kill_and_resume_is_bit_identical(self, tmp_path, monkeypatch):
        """Satellite (d): kill mid-campaign, resume, compare everything."""
        path = str(tmp_path / "campaign.ckpt")
        budget, seed = 1.0, 77

        def fresh_engine(**ckpt):
            from repro.core.pmfuzz import build_engine
            return build_engine(
                "hashmap_tx", PMFUZZ,
                rng=DeterministicRandom(seed).fork("hashmap_tx/det"),
                **ckpt)

        baseline_engine = fresh_engine()  # no checkpointing
        baseline = baseline_engine.run(budget)

        # Same campaign, killed abruptly mid-round at the 70th execution
        # (past at least one 0.2-vsecond checkpoint boundary).
        victim = fresh_engine(checkpoint_every=0.2, checkpoint_path=path)
        real_run_one = victim._run_one

        def killing_run_one(entry, data):
            if victim.stats.executions >= 70:
                raise Boom()
            real_run_one(entry, data)

        monkeypatch.setattr(victim, "_run_one", killing_run_one)
        with pytest.raises(Boom):
            victim.run(budget)
        assert os.path.exists(path)

        resumed_engine = resume_campaign(path)
        assert resumed_engine.stats.executions < 70  # rolled back
        resumed = resumed_engine.run(budget)

        assert resumed == baseline  # FuzzStats dataclass equality
        assert resumed_engine.pm_cov.virgin == baseline_engine.pm_cov.virgin
        assert resumed_engine.branch_cov.virgin == \
            baseline_engine.branch_cov.virgin

    def test_resume_preserves_coverage_and_queue(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt")
        from repro.core.pmfuzz import build_engine

        def fresh():
            return build_engine(
                "hashmap_tx", PMFUZZ,
                rng=DeterministicRandom(5).fork("hashmap_tx/det"),
                checkpoint_every=0.25, checkpoint_path=path)

        baseline = fresh()
        baseline.run(0.8)

        interrupted = fresh()
        interrupted.run(0.8)  # writes checkpoints along the way
        resumed = resume_campaign(path)
        resumed.run(0.8)

        assert resumed.stats == baseline.stats
        assert resumed.pm_cov.virgin == baseline.pm_cov.virgin
        assert resumed.branch_cov.virgin == baseline.branch_cov.virgin
        assert [e.data for e in resumed.queue.entries] == \
            [e.data for e in baseline.queue.entries]
        assert [e.image_id for e in resumed.queue.entries] == \
            [e.image_id for e in baseline.queue.entries]

    def test_faulted_campaign_resumes_identically(self, tmp_path):
        """The injector RNG stream is part of the checkpoint."""
        path = str(tmp_path / "faulted.ckpt")
        baseline = run_campaign("hashmap_tx", "pmfuzz", 0.8, seed=13,
                                fault_plan="all:0.02")
        partial = run_campaign("hashmap_tx", "pmfuzz", 0.8, seed=13,
                               fault_plan="all:0.02",
                               checkpoint_every=0.2, checkpoint_path=path)
        assert partial == baseline
        resumed = resume_campaign(path).run(0.8)
        assert resumed == baseline

    def test_resume_campaign_extends_budget(self, tmp_path):
        path = str(tmp_path / "extend.ckpt")
        run_campaign("hashmap_tx", "pmfuzz", 0.5, seed=21,
                     checkpoint_every=0.1, checkpoint_path=path)
        longer = resume_campaign(path).run(0.9)
        straight = run_campaign("hashmap_tx", "pmfuzz", 0.9, seed=21)
        assert longer == straight

    def test_budget_stop_checkpoints_the_cut_round(self, tmp_path):
        """The first round outlasts a 0.3 s budget, so no periodic
        checkpoint lands; the budget stop writes one, mid-round, that
        changes nothing about the campaign and resumes exactly."""
        path = str(tmp_path / "stop.ckpt")
        stopped = run_campaign("hashmap_tx", "pmfuzz", 0.3, seed=21,
                               checkpoint_every=0.1, checkpoint_path=path)
        straight = run_campaign("hashmap_tx", "pmfuzz", 0.3, seed=21)
        assert stopped.comparable() == straight.comparable()
        assert read_checkpoint(path)["state"]["pending_round"] is not None
        again = resume_campaign(path).run(0.3)
        assert again == straight
        longer = resume_campaign(path).run(0.9)
        assert longer == run_campaign("hashmap_tx", "pmfuzz", 0.9, seed=21)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork")
    def test_resume_restores_every_run_option(self, tmp_path):
        """A checkpoint of a campaign with every RunConfig field off its
        default resumes with an equal RunConfig."""
        from repro.core.config import MIB, RUN_OPTIONS, RunConfig

        path = str(tmp_path / "every.ckpt")
        run = RunConfig(
            exec_vtime_budget=0.3, max_retries=2, checkpoint_every=0.1,
            checkpoint_path=path, isolation="fork", isolation_workers=2,
            batch_execs=4, exec_wall_timeout=9.0,
            worker_rss_limit=4096 * MIB, worker_max_execs=128,
            triage_dir=str(tmp_path / "triage"),
            trace_dir=str(tmp_path / "trace"), trace_sample=2,
            trace_rotate_bytes=MIB, profile=True, status_every=0.3)
        assert set(run.options()) == RUN_OPTIONS
        run_campaign("hashmap_tx", "pmfuzz", 0.3, seed=21, run_config=run)
        engine = resume_campaign(path)
        engine.close()
        assert engine.run_config == run

    def test_older_format_is_refused(self, tmp_path, capsys):
        """A checkpoint of an older format is refused by its version
        alone: one CheckpointError line, exit 2 from the CLI."""
        from repro.cli import main

        path = str(tmp_path / "current.ckpt")
        run_campaign("hashmap_tx", "pmfuzz", 0.3, seed=21,
                     checkpoint_path=path)
        payload = read_checkpoint(path)
        payload["version"] = 1
        older = str(tmp_path / "older.ckpt")
        write_checkpoint(older, payload)

        with pytest.raises(CheckpointError,
                           match="format version 1") as exc:
            resume_campaign(older)
        assert len(str(exc.value).splitlines()) == 1
        assert main(["resume", older, "--budget", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "format version 1" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("prev_version", [1, FORMAT_VERSION])
    def test_version_mismatch_never_falls_back(self, tmp_path, capsys,
                                               prev_version):
        """A primary of another format version is refused by its own
        name, whatever ``.prev`` holds: rotation cannot repair it, and a
        current ``.prev`` must not be resumed in its place."""
        from repro.cli import main

        current = str(tmp_path / "current.ckpt")
        run_campaign("hashmap_tx", "pmfuzz", 0.3, seed=21,
                     checkpoint_path=current)
        payload = read_checkpoint(current)
        path = str(tmp_path / "p.ckpt")
        write_checkpoint(path + ".prev", dict(payload, version=prev_version))
        write_checkpoint(path, dict(payload, version=1))

        with pytest.raises(CheckpointError) as exc:
            resume_campaign(path)
        assert str(exc.value) == (f"checkpoint {path!r} has format version "
                                  f"1, expected {FORMAT_VERSION}")
        assert main(["resume", path, "--budget", "0.5"]) == 2
        err = capsys.readouterr().err
        assert repr(path) in err and ".prev" not in err

    def test_resume_rebuilds_pmfuzz_configuration(self, tmp_path):
        path = str(tmp_path / "cls.ckpt")
        run_campaign("hashmap_tx", "pmfuzz", 0.6, seed=3,
                     checkpoint_every=0.1, checkpoint_path=path)
        resumed = resume_campaign(path)
        assert resumed.config is PMFUZZ
        # Indirect image fuzzing resumes with its final images and its
        # generated images, and keeps generating them.
        assert resumed.executor.keep_final_image
        before = resumed.stats.crash_images_generated
        assert before > 0
        stats = resumed.run(1.2)
        assert stats.crash_images_generated > before

    def test_quarantine_state_survives_resume(self, tmp_path):
        """Strikes and quarantined inputs are part of the checkpoint: a
        resumed campaign must keep refusing a harness-killing input
        without re-executing it."""
        from repro.core.pmfuzz import build_engine
        from repro.workloads.registry import get_workload
        from repro.workloads.base import RunOutcome

        path = str(tmp_path / "quarantine.ckpt")
        engine = build_engine(
            "hashmap_tx", PMFUZZ,
            rng=DeterministicRandom(11).fork("hashmap_tx/det"))
        engine.setup()
        poison = ("img-dead", b"kill the harness")
        engine.supervisor.quarantined.add(poison)
        engine.supervisor._strikes[("img-weak", b"two strikes")] = 2
        engine.stats.quarantined += 1
        engine.checkpoint(path)

        resumed = resume_campaign(path)
        assert resumed.supervisor.is_quarantined(*poison)
        assert resumed.supervisor._strikes[("img-weak", b"two strikes")] == 2
        assert resumed.stats.quarantined == 1
        # The quarantined input is refused with a fault result, without
        # ever reaching the executor.
        image = get_workload("hashmap_tx").create_image()
        result = resumed.supervisor.run(image, poison[1],
                                        image_id=poison[0])
        assert result.outcome is RunOutcome.HARNESS_FAULT
        assert "quarantined" in result.error
        # One more strike on the partially-struck input tips it over.
        resumed.supervisor._strike(("img-weak", b"two strikes"))
        assert resumed.supervisor.is_quarantined("img-weak",
                                                 b"two strikes")

    def test_hand_built_engine_cannot_self_resume(self, tmp_path):
        """A checkpoint without campaign_meta refuses to resurrect."""
        from repro.workloads.registry import get_workload
        path = str(tmp_path / "meta-less.ckpt")
        engine = FuzzEngine(lambda: get_workload("hashmap_tx"), PMFUZZ,
                            rng=DeterministicRandom(1))
        engine.setup()
        engine.checkpoint(path)
        with pytest.raises(CheckpointError, match="metadata"):
            resume_campaign(path)

    def test_checkpoint_every_requires_path(self):
        from repro.core.config import RunConfig
        from repro.errors import FuzzerError
        with pytest.raises(FuzzerError, match="requires --checkpoint-path"):
            RunConfig(checkpoint_every=0.5)
