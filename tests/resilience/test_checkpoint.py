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
from repro.resilience.checkpoint import (read_checkpoint, resume_campaign,
                                         write_checkpoint)


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        payload = {"version": 1, "data": [1, 2, 3], "blob": b"\x00\xff"}
        write_checkpoint(path, payload)
        assert read_checkpoint(path) == payload

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        write_checkpoint(path, {"version": 1})
        assert os.listdir(tmp_path) == ["c.ckpt"]

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        write_checkpoint(path, {"version": 1, "gen": 1})
        write_checkpoint(path, {"version": 1, "gen": 2})
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
        write_checkpoint(path, {"version": 1, "data": list(range(100))})
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x40  # flip one bit mid-payload
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(str(path))

    def test_truncation_is_detected(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        write_checkpoint(path, {"version": 1, "data": list(range(100))})
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
            write_checkpoint(path, {"version": 1, "bad": lambda: None})
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

        resumed_engine = FuzzEngine.resume(path)
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
        resumed = FuzzEngine.resume(path)
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
        resumed = run_campaign("hashmap_tx", "pmfuzz", 0.8,
                               resume_from=path)
        assert resumed == baseline

    def test_resume_via_run_campaign_extends_budget(self, tmp_path):
        path = str(tmp_path / "extend.ckpt")
        run_campaign("hashmap_tx", "pmfuzz", 0.5, seed=21,
                     checkpoint_every=0.1, checkpoint_path=path)
        longer = run_campaign("hashmap_tx", "pmfuzz", 0.9,
                              resume_from=path)
        straight = run_campaign("hashmap_tx", "pmfuzz", 0.9, seed=21)
        assert longer == straight

    def test_resume_ignores_retired_exec_core_kwarg(self, tmp_path):
        """Checkpoints taken with the retired ``--exec-core`` flag carry
        the core name in their engine kwargs; they resume exactly as if
        it were absent."""
        path = str(tmp_path / "plain.ckpt")
        run_campaign("hashmap_tx", "pmfuzz", 0.5, seed=21,
                     checkpoint_every=0.1, checkpoint_path=path)
        payload = read_checkpoint(path)
        assert "exec_core" not in payload["meta"]["engine_kwargs"]
        payload["meta"]["engine_kwargs"]["exec_core"] = "vector"
        legacy = str(tmp_path / "legacy.ckpt")
        write_checkpoint(legacy, payload)

        plain = run_campaign("hashmap_tx", "pmfuzz", 0.9, resume_from=path)
        resumed = run_campaign("hashmap_tx", "pmfuzz", 0.9,
                               resume_from=legacy)
        assert resumed.comparable() == plain.comparable()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork")
    @pytest.mark.parametrize("transport", ["ring", "pipe"])
    def test_resume_ignores_retired_transport_kwarg(self, tmp_path,
                                                    transport):
        """Fork campaigns checkpointed with an explicit transport (a
        retired flag) carry it in their engine kwargs; they resume to
        the uninterrupted campaign."""
        fork = {"isolation": "fork", "isolation_workers": 1,
                "triage_dir": str(tmp_path / "triage")}
        path = str(tmp_path / "fork.ckpt")
        run_campaign("hashmap_tx", "pmfuzz", 0.4, seed=21,
                     checkpoint_every=0.1, checkpoint_path=path, **fork)
        payload = read_checkpoint(path)
        assert "transport" not in payload["meta"]["engine_kwargs"]
        payload["meta"]["engine_kwargs"]["transport"] = transport
        legacy = str(tmp_path / "legacy.ckpt")
        write_checkpoint(legacy, payload)

        straight = run_campaign("hashmap_tx", "pmfuzz", 0.7, seed=21,
                                **fork)
        resumed = run_campaign("hashmap_tx", "pmfuzz", 0.7,
                               resume_from=legacy)
        assert resumed.comparable() == straight.comparable()

    def test_resume_ignores_retired_fault_site(self, tmp_path):
        """A checkpoint pickles its fault plan, and unpickling skips the
        site check, so a plan expanded when the registry still held a
        retired site (the serve daemon's, the corpus database's) resumes
        to the uninterrupted campaign."""
        from repro.resilience.faults import FaultPlan, FaultSpec

        path = str(tmp_path / "faulted.ckpt")
        run_campaign("hashmap_tx", "pmfuzz", 0.4, seed=21,
                     fault_plan="all:0.02",
                     checkpoint_every=0.1, checkpoint_path=path)
        straight = run_campaign("hashmap_tx", "pmfuzz", 0.7, seed=21,
                                fault_plan="all:0.02")
        for site in ("serve-journal", "corpusdb-publish"):
            payload = read_checkpoint(path)
            plan = payload["meta"]["fault_plan"]
            retired = object.__new__(FaultSpec)
            for name, value in (("site", site), ("rate", 0.02),
                                ("burst", 1)):
                object.__setattr__(retired, name, value)
            payload["meta"]["fault_plan"] = FaultPlan(
                plan.specs + (retired,), seed=plan.seed)
            legacy = str(tmp_path / f"legacy-{site}.ckpt")
            write_checkpoint(legacy, payload)

            resumed = run_campaign("hashmap_tx", "pmfuzz", 0.7,
                                   resume_from=legacy)
            assert resumed.comparable() == straight.comparable(), site

    def test_resume_accepts_empty_retired_state_keys(self, tmp_path):
        """Solo checkpoints from before the fleet and the corpus database
        were retired carry both state keys as None; they resume to the
        uninterrupted campaign."""
        path = str(tmp_path / "solo.ckpt")
        run_campaign("hashmap_tx", "pmfuzz", 0.4, seed=21,
                     checkpoint_every=0.1, checkpoint_path=path)
        payload = read_checkpoint(path)
        assert "fleet" not in payload["state"]
        payload["state"].update(fleet=None, corpusdb=None)
        legacy = str(tmp_path / "legacy.ckpt")
        write_checkpoint(legacy, payload)

        straight = run_campaign("hashmap_tx", "pmfuzz", 0.7, seed=21)
        resumed = run_campaign("hashmap_tx", "pmfuzz", 0.7,
                               resume_from=legacy)
        assert resumed.comparable() == straight.comparable()

    @pytest.mark.parametrize("where,key,value,feature", [
        ("kwargs", "corpus_db", "/srv/db", "retired engine options"),
        ("state", "corpusdb", {"seen": []}, "corpus database"),
        ("state", "fleet", {"epoch": 3}, "fleet"),
    ], ids=["corpus-db-kwarg", "corpusdb-state", "fleet-state"])
    def test_resume_refuses_retired_feature(self, tmp_path, capsys, where,
                                            key, value, feature):
        """A fleet member or corpus-database campaign imported entries a
        solo resume cannot reproduce: resuming it is a one-line error."""
        from repro.cli import main

        path = str(tmp_path / "solo.ckpt")
        run_campaign("hashmap_tx", "pmfuzz", 0.3, seed=21,
                     checkpoint_every=0.1, checkpoint_path=path)
        payload = read_checkpoint(path)
        target = (payload["meta"]["engine_kwargs"] if where == "kwargs"
                  else payload["state"])
        target[key] = value
        legacy = str(tmp_path / "legacy.ckpt")
        write_checkpoint(legacy, payload)

        with pytest.raises(CheckpointError, match=feature):
            resume_campaign(legacy)
        assert main(["fuzz", "--resume", legacy, "--budget", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "retired" in err
        assert len(err.strip().splitlines()) == 1

    def test_resume_reads_old_image_store_state(self, tmp_path):
        """Older checkpoints carry the store's retired ``layouts`` index
        and level-6 ``zlib.compress`` blobs; they resume exactly like a
        current one."""
        import zlib

        path = str(tmp_path / "plain.ckpt")
        run_campaign("hashmap_tx", "pmfuzz", 0.5, seed=21,
                     checkpoint_every=0.1, checkpoint_path=path)
        payload = read_checkpoint(path)
        store = payload["state"]["store"]
        assert "layouts" not in store
        store["layouts"] = {image_id: "hashmap_tx"
                            for image_id in store["by_hash"]}
        store["by_hash"] = {
            image_id: zlib.compress(zlib.decompress(blob), 6)
            for image_id, blob in store["by_hash"].items()}
        legacy = str(tmp_path / "legacy.ckpt")
        write_checkpoint(legacy, payload)

        plain = run_campaign("hashmap_tx", "pmfuzz", 0.9, resume_from=path)
        resumed = run_campaign("hashmap_tx", "pmfuzz", 0.9,
                               resume_from=legacy)
        assert resumed.comparable() == plain.comparable()

    def test_resume_rebuilds_pmfuzz_engine_class(self, tmp_path):
        from repro.core.pmfuzz import PMFuzzEngine
        path = str(tmp_path / "cls.ckpt")
        run_campaign("hashmap_tx", "pmfuzz", 0.6, seed=3,
                     checkpoint_every=0.1, checkpoint_path=path)
        assert isinstance(FuzzEngine.resume(path), PMFuzzEngine)

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

        resumed = FuzzEngine.resume(path)
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
        from repro.errors import FuzzerError
        from repro.workloads.registry import get_workload
        with pytest.raises(FuzzerError):
            FuzzEngine(lambda: get_workload("hashmap_tx"), PMFUZZ,
                       checkpoint_every=0.5)
