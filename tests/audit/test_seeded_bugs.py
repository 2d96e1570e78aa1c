"""Regression proof: the auditor catches the pre-fix ordering bugs.

Each test re-introduces one ordering bug the audit PR fixed and asserts
the auditor flags it — demonstrating the auditor is the regression net
for the durable protocols, not just a green checkbox.
"""

import json
import os

import pytest

from repro._vfs import current_vfs
from repro.audit.runner import BUNDLE_MANIFEST, DurabilityAuditor


@pytest.fixture
def bare_replace_compaction(monkeypatch):
    """Re-introduce the pre-fix bug: compaction's hot->cold move as a
    single cross-directory rename instead of link+fsync+unlink."""
    import repro.corpusdb.db as db_mod

    monkeypatch.setattr(
        db_mod, "move_durable",
        lambda src, dst: current_vfs().replace(src, dst))


class TestSeededCorpusdbBug:
    def test_bare_replace_move_is_flagged(self, tmp_path,
                                          bare_replace_compaction):
        result = DurabilityAuditor(str(tmp_path / "out")).audit_component(
            "corpusdb")
        assert not result.ok
        names = {v.invariant for v in result.violations}
        # The lose-dst half of the cross-dir rename loses the entry; the
        # lose-src half leaves it visible in both tiers.
        assert "compacted-never-lost" in names
        assert "exactly-once-tiers" in names
        half_ids = {v.state_id for v in result.violations}
        assert any("-ld" in s for s in half_ids)

    def test_violation_leaves_replayable_bundle(self, tmp_path,
                                                bare_replace_compaction):
        result = DurabilityAuditor(str(tmp_path / "out")).audit_component(
            "corpusdb")
        assert result.bundle_dirs
        bundle = result.bundle_dirs[0]
        state_dir = os.path.join(bundle, "state")
        assert os.path.isdir(os.path.join(state_dir, "db"))
        with open(os.path.join(bundle, BUNDLE_MANIFEST),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["component"] == "corpusdb"
        assert manifest["state_id"] == os.path.basename(bundle)
        assert manifest["trace"] and manifest["violations"]
        assert "replace(" in "\n".join(manifest["trace"])

    def test_cli_exits_one_and_reports(self, tmp_path, capsys,
                                       bare_replace_compaction):
        from repro.cli import main

        rc = main(["audit", "--component", "corpusdb",
                   "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ORDERING BUGS FOUND" in out
        assert "replayable corpusdb bundles" in out
