"""Regression proof: the auditor catches a seeded ordering bug.

The test re-introduces the ordering bug the checkpoint protocol exists
to prevent and asserts the auditor flags it — demonstrating the auditor
is the regression net for the durable protocols, not just a green
checkbox.
"""

import json
import os

import pytest

from repro._vfs import current_vfs
from repro.audit.runner import BUNDLE_MANIFEST, DurabilityAuditor


@pytest.fixture
def in_place_checkpoint(monkeypatch):
    """Seed the bug: no ``.prev`` rotation, and the checkpoint is
    rewritten in place (write + fsync) instead of write-tmp + rename, so
    a crash mid-write tears the only copy."""
    import repro.resilience.checkpoint as ckpt_mod

    def write_in_place(path, data, fsync=True):
        vfs = current_vfs()
        vfs.write_bytes(path, data)
        vfs.fsync(path)

    monkeypatch.setattr(ckpt_mod, "rotate_previous", lambda path: None)
    monkeypatch.setattr(ckpt_mod, "atomic_write_bytes", write_in_place)


class TestSeededCheckpointBug:
    def test_in_place_rewrite_is_flagged(self, tmp_path,
                                         in_place_checkpoint):
        result = DurabilityAuditor(str(tmp_path / "out")).audit_component(
            "checkpoint")
        assert not result.ok
        # A torn primary with no .prev to fall back on: recovery raises.
        assert {v.invariant for v in result.violations} == \
            {"recovery-completes"}
        assert result.states_checked == 9
        assert len(result.violations) == 5

    def test_violation_leaves_replayable_bundle(self, tmp_path,
                                                in_place_checkpoint):
        result = DurabilityAuditor(str(tmp_path / "out")).audit_component(
            "checkpoint")
        assert len(result.bundle_dirs) == 5
        bundle = result.bundle_dirs[0]
        state_dir = os.path.join(bundle, "state")
        assert os.path.isfile(os.path.join(state_dir, "campaign.ckpt"))
        with open(os.path.join(bundle, BUNDLE_MANIFEST),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["component"] == "checkpoint"
        assert manifest["state_id"] == os.path.basename(bundle)
        assert manifest["trace"] and manifest["violations"]
        assert "replace(" not in "\n".join(manifest["trace"])

    def test_cli_exits_one_and_reports(self, tmp_path, capsys,
                                       in_place_checkpoint):
        from repro.cli import main

        rc = main(["audit", "--component", "checkpoint",
                   "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ORDERING BUGS FOUND" in out
        assert "replayable checkpoint bundles" in out
