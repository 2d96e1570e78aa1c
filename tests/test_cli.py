"""Tests for the ``python -m repro`` command-line driver."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_fuzz_args(self):
        args = build_parser().parse_args(
            ["fuzz", "--workload", "btree", "--budget", "1.5"])
        assert args.workload == "btree"
        assert args.budget == 1.5
        assert args.config == "pmfuzz"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--workload", "nope"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "btree" in out and "redis" in out
        assert "bug6_no_recovery_call" in out

    def test_fuzz_command(self, capsys):
        code = main(["fuzz", "--workload", "skiplist", "--config",
                     "aflpp_sysopt", "--budget", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PM paths covered" in out

    def test_fuzz_restores_signal_handlers(self, capsys):
        """The two-stage stop handlers live only as long as the
        campaign: a forked child of the calling process must not
        inherit handlers that target a finished engine."""
        import signal

        before = [signal.getsignal(s)
                  for s in (signal.SIGINT, signal.SIGTERM)]
        assert main(["fuzz", "--workload", "btree", "--budget", "0.2"]) == 0
        assert [signal.getsignal(s)
                for s in (signal.SIGINT, signal.SIGTERM)] == before

    def test_unknown_config_fails_fast(self, capsys):
        assert main(["fuzz", "--workload", "btree", "--config",
                     "bogus", "--budget", "0.1"]) == 2

    def test_crashgen_flag(self, capsys):
        args = build_parser().parse_args(
            ["fuzz", "--workload", "btree"])
        assert args.crashgen == "singlepass"
        code = main(["fuzz", "--workload", "hashmap_tx", "--budget", "0.3",
                     "--crashgen", "reexec"])
        assert code == 0
        assert "crash images" in capsys.readouterr().out

    def test_bogus_crashgen_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fuzz", "--workload", "btree", "--crashgen", "magic"])

    def test_real_bugs_single(self, capsys):
        code = main(["real-bugs", "--bug", "8", "--budget", "1.0"])
        out = capsys.readouterr().out
        assert "bug  8" in out
        assert code == 0
        assert "detected" in out


class TestResilienceFlags:
    def test_fuzz_reports_stop_reason(self, capsys):
        assert main(["fuzz", "--workload", "skiplist", "--config",
                     "aflpp_sysopt", "--budget", "0.3"]) == 0
        assert "stopped" in capsys.readouterr().out

    def test_fuzz_with_fault_plan_reports_faults(self, capsys):
        code = main(["fuzz", "--workload", "hashmap_tx", "--budget", "0.6",
                     "--seed", "42", "--fault-plan", "all:0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "harness faults" in out

    def test_bad_fault_plan_is_clean_error(self, capsys):
        assert main(["fuzz", "--workload", "hashmap_tx", "--budget", "0.1",
                     "--fault-plan", "bogus-site:0.5"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault site" in err

    def test_damaged_checkpoint_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        assert main(["fuzz", "--resume", str(path), "--budget", "1"]) == 2
        assert "not a campaign checkpoint" in capsys.readouterr().err

    def test_fuzz_requires_workload_unless_resuming(self, capsys):
        assert main(["fuzz", "--budget", "0.3"]) == 2
        assert "--workload" in capsys.readouterr().err

    def test_checkpoint_and_resume_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "cli.ckpt")
        assert main(["fuzz", "--workload", "hashmap_tx", "--budget", "0.6",
                     "--seed", "21", "--checkpoint-every", "0.1",
                     "--checkpoint-path", path]) == 0
        capsys.readouterr()
        assert main(["fuzz", "--resume", path, "--budget", "0.9"]) == 0
        resumed_out = capsys.readouterr().out
        assert "stopped           : budget" in resumed_out

    def test_compare_accepts_fault_plan(self):
        args = build_parser().parse_args(
            ["compare", "--workload", "btree", "--fault-plan", "all:0.01",
             "--checkpoint-every", "0.5"])
        assert args.fault_plan == "all:0.01"
        assert args.checkpoint_every == 0.5


class TestIsolationFlags:
    def test_isolation_flags_parse(self):
        args = build_parser().parse_args(
            ["fuzz", "--workload", "btree", "--budget", "1",
             "--isolation", "fork", "--workers", "2",
             "--exec-wall-timeout", "5", "--worker-rss-limit", "512",
             "--triage-dir", "t"])
        assert args.isolation == "fork"
        assert args.workers == 2
        assert args.exec_wall_timeout == 5.0
        assert args.worker_rss_limit == 512
        assert args.triage_dir == "t"

    def test_isolation_defaults_to_none(self):
        args = build_parser().parse_args(
            ["fuzz", "--workload", "btree", "--budget", "1"])
        assert args.isolation == "none"

    def test_bogus_isolation_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fuzz", "--workload", "btree", "--isolation", "docker"])

    def test_summary_line_reports_stop_reason_and_counters(self, capsys):
        assert main(["fuzz", "--workload", "skiplist", "--config",
                     "aflpp_sysopt", "--budget", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "summary" in out
        assert "stopped=budget" in out
        assert "faults=" in out and "timeouts=" in out \
            and "quarantined=" in out

    @pytest.mark.parametrize("flags, named", [
        (["--workers", "0"], "--workers"),
        (["--exec-wall-timeout", "0"], "--exec-wall-timeout"),
        (["--exec-wall-timeout", "-1"], "--exec-wall-timeout"),
        (["--exec-wall-timeout", "inf"], "--exec-wall-timeout"),
        (["--exec-wall-timeout", "nan"], "--exec-wall-timeout"),
        (["--batch-execs", "0"], "--batch-execs"),
    ])
    def test_bad_isolation_flag_is_clean_error(self, flags, named, capsys):
        code = main(["fuzz", "--workload", "btree", "--budget", "0.2",
                     "--isolation", "fork", *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err

    def test_triage_replay_rejects_non_positive_wall_timeout(
            self, tmp_path, capsys):
        from repro.core.storage import TriageStore
        path = TriageStore(str(tmp_path)).write_bundle(
            "worker-death", b"g 5\n", b"y", {"workload": "hashmap_tx"})
        assert main(["triage", "--replay", path,
                     "--exec-wall-timeout", "0"]) == 2
        assert "--exec-wall-timeout" in capsys.readouterr().err

    def test_fork_campaign_via_cli(self, tmp_path, capsys):
        import os
        if not hasattr(os, "fork"):
            pytest.skip("requires os.fork")
        code = main(["fuzz", "--workload", "hashmap_tx", "--budget", "0.3",
                     "--isolation", "fork", "--workers", "1",
                     "--triage-dir", str(tmp_path / "triage")])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend=fork" in out
        assert "watchdog-kills=0" in out


class TestTriageCommand:
    def test_empty_triage_dir_lists_nothing(self, tmp_path, capsys):
        assert main(["triage", str(tmp_path / "missing")]) == 0
        assert "no triage bundles" in capsys.readouterr().out

    def test_listing_shows_reason_and_workload(self, tmp_path, capsys):
        from repro.core.storage import TriageStore
        store = TriageStore(str(tmp_path))
        store.write_bundle("watchdog-timeout", b"i 1 2\n", b"\x00" * 16,
                           {"workload": "hashmap_tx",
                            "exit_detail": "killed by SIGKILL"})
        assert main(["triage", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "watchdog-timeout" in out
        assert "hashmap_tx" in out

    def test_replay_reexecutes_the_bundle(self, tmp_path, capsys):
        from repro.core.storage import TriageStore
        from repro.workloads import get_workload
        image = get_workload("hashmap_tx").create_image()
        store = TriageStore(str(tmp_path))
        path = store.write_bundle(
            "worker-death", b"i 5 1\ng 5\n", image.to_bytes(),
            {"workload": "hashmap_tx", "config": "pmfuzz", "bugs": []})
        assert main(["triage", "--replay", path,
                     "--isolation", "none"]) == 0
        out = capsys.readouterr().out
        assert "replaying" in out
        assert "outcome           : ok" in out

    def test_replay_without_workload_is_clean_error(self, tmp_path, capsys):
        from repro.core.storage import TriageStore
        path = TriageStore(str(tmp_path)).write_bundle(
            "worker-death", b"x", b"y", {})
        assert main(["triage", "--replay", path]) == 2
        assert "workload" in capsys.readouterr().err

    def test_replay_missing_bundle_is_clean_error(self, tmp_path, capsys):
        assert main(["triage", "--replay",
                     str(tmp_path / "nope")]) == 2
        assert "cannot load bundle" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_traced_profiled_campaign_via_cli(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        code = main(["fuzz", "--workload", "hashmap_tx", "--budget", "0.3",
                     "--trace-dir", str(trace), "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-stage breakdown" in out
        assert "virtual time" in out and "wall clock" in out
        assert (trace / "trace-solo.jsonl").exists()
        assert (trace / "status.json").exists()

    def test_bad_trace_sample_is_clean_error(self, tmp_path, capsys):
        assert main(["fuzz", "--workload", "hashmap_tx", "--budget", "0.1",
                     "--trace-dir", str(tmp_path / "t"),
                     "--trace-sample", "0"]) == 2
        assert "--trace-sample must be >= 1" in capsys.readouterr().err

    def test_bad_status_every_is_clean_error(self, tmp_path, capsys):
        assert main(["fuzz", "--workload", "hashmap_tx", "--budget", "0.1",
                     "--trace-dir", str(tmp_path / "t"),
                     "--status-every", "-1"]) == 2
        assert "--status-every must be > 0" in capsys.readouterr().err

    def test_monitor_and_report_wait_flags(self):
        mon = build_parser().parse_args(["monitor", "/tmp/t", "--wait", "3"])
        assert mon.wait == 3.0
        rep = build_parser().parse_args(["report", "/tmp/t", "--wait", "2"])
        assert rep.wait == 2.0

    def test_monitor_once_and_report_via_cli(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        assert main(["fuzz", "--workload", "hashmap_tx", "--budget", "0.3",
                     "--trace-dir", str(trace)]) == 0
        capsys.readouterr()
        assert main(["monitor", str(trace), "--once"]) == 0
        assert "campaign monitor" in capsys.readouterr().out
        html = tmp_path / "report.html"
        assert main(["report", str(trace), "--html", str(html)]) == 0
        out = capsys.readouterr().out
        assert "campaign report" in out and "PM path coverage" in out
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_monitor_once_on_empty_dir_exits_nonzero(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path), "--once"]) == 1
        assert "no status files" in capsys.readouterr().out


class TestVersionAndExitCodes:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_domain_errors_are_one_clean_error_line(self, capsys):
        # Convention: rc 2 for usage/config errors, one line on stderr
        # starting with "error:", never a traceback.
        assert main(["fuzz", "--workload", "btree", "--config", "bogus",
                     "--budget", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


class TestRetiredServe:
    """Retired subcommands, options, audit components and fault groups
    (the serve daemon, the fleet, the corpus database) are usage
    errors, never silently ignored."""

    def test_serve_subcommand_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "serve" in err

    def test_serve_fault_group_is_a_clean_error(self, capsys):
        assert main(["fuzz", "--workload", "btree", "--budget", "0.1",
                     "--fault-plan", "serve:0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        pytest.param(["fuzz", "--fleet", "2"], id="fuzz-fleet"),
        pytest.param(["fuzz", "--corpus-db", "d"], id="fuzz-corpus-db"),
        pytest.param(["corpusdb", "info", "d"], id="corpusdb"),
        pytest.param(["audit", "--component", "corpusdb"],
                     id="audit-corpusdb"),
    ])
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err

    def test_corpusdb_fault_group_is_a_clean_error(self, capsys):
        assert main(["fuzz", "--workload", "btree", "--budget", "0.1",
                     "--fault-plan", "corpusdb:0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
