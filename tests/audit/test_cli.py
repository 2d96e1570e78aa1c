"""The ``audit`` and ``faults`` subcommands."""

from repro.cli import main
from repro.observe.sink import merge_shards
from repro.resilience.faults import FAULT_SITES, SITE_GROUPS


class TestAuditCommand:
    def test_single_component_clean_exits_zero(self, tmp_path, capsys):
        rc = main(["audit", "--component", "checkpoint",
                   "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: CLEAN" in out
        assert "checkpoint" in out

    def test_budget_run_over_all_components(self, tmp_path, capsys):
        rc = main(["audit", "--budget", "6",
                   "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == 0
        # One summary line per component, each capped at the budget.
        for name in ("checkpoint", "corpus", "storage", "sink"):
            assert name in out

    def test_same_invocation_renders_identical_report(self, tmp_path,
                                                      capsys):
        outputs = []
        for i in range(2):
            main(["audit", "--component", "sink", "--budget", "9",
                  "--out", str(tmp_path / f"out{i}")])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_trace_dir_receives_audit_events(self, tmp_path, capsys):
        trace_dir = str(tmp_path / "traces")
        rc = main(["audit", "--component", "sink", "--budget", "4",
                   "--out", str(tmp_path / "out"),
                   "--trace-dir", trace_dir])
        capsys.readouterr()
        assert rc == 0
        events, skipped = merge_shards(trace_dir)
        assert skipped == 0
        audits = [e for e in events if e.kind == "audit"]
        assert len(audits) == 1
        assert audits[0].payload["component"] == "sink"

    def test_unknown_component_is_a_usage_error(self, tmp_path, capsys):
        try:
            rc = main(["audit", "--component", "floppy",
                       "--out", str(tmp_path / "out")])
        except SystemExit as exc:  # argparse rejects bad choices
            rc = exc.code
        capsys.readouterr()
        assert rc == 2


class TestFaultsCommand:
    def test_list_names_every_site_and_alias(self, capsys):
        rc = main(["faults", "list"])
        out = capsys.readouterr().out
        assert rc == 0
        for site in FAULT_SITES:
            assert site in out
        for alias in SITE_GROUPS:
            assert alias in out
        assert "[host" in out and "[campaign" in out
        # Descriptions ride along, not just bare names.
        assert "ENOSPC" in out
