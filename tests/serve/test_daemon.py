"""Daemon supervision: idle exit, recovery table, watchdog, breaker."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.fuzz.stats import FuzzStats
from repro.serve import ServeDaemon, SubmissionJournal
from repro.serve.state import ServePaths
from tests.serve.conftest import TINY_BUDGET, wait_until

VALID = {"tenant": "acme", "workload": "btree", "budget": TINY_BUDGET,
         "seed": 5}


def test_exit_when_idle_waits_for_the_first_submission(daemon_thread):
    """A fresh idle-exit daemon must wait for work, not exit at once."""
    handle = daemon_thread(exit_when_idle=True)
    handle.start()
    time.sleep(0.3)  # several poll intervals with an empty table
    assert handle.thread.is_alive()
    record = handle.daemon.submit(dict(VALID))
    handle.thread.join(timeout=60)
    assert handle.exit_status == 0
    assert handle.daemon.records[record.cid].state == "done"
    assert handle.daemon.paths.load_stats(record.cid) is not None
    assert handle.daemon.journal.pending() == []


def test_chaos_fail_trips_the_circuit_breaker(daemon_thread):
    handle = daemon_thread(enable_chaos=True, max_deaths=2,
                           restart_backoff=0.01, exit_when_idle=True)
    handle.start()
    record = handle.daemon.submit({**VALID, "chaos": "fail"})
    handle.thread.join(timeout=60)
    assert handle.exit_status == 0
    assert record.state == "retired"
    assert len(record.deaths) == 2
    assert os.path.exists(handle.daemon.paths.retired_marker(record.cid))
    # Terminal means committed: the intent is gone.
    assert handle.daemon.journal.pending() == []


def test_wedge_escalates_sigterm_to_sigkill_then_recovers(daemon_thread):
    """A wedged runner ignores SIGTERM; the watchdog SIGKILLs it and
    the restarted runner completes normally."""
    handle = daemon_thread(enable_chaos=True, lease_s=0.3,
                           kill_grace=0.2, restart_backoff=0.01,
                           exit_when_idle=True)
    handle.start()
    record = handle.daemon.submit({**VALID, "chaos": "wedge-once"})
    handle.thread.join(timeout=60)
    assert handle.exit_status == 0
    assert record.state == "done"
    assert record.restarts == 1
    marker = os.path.join(handle.daemon.paths.campaign_dir(record.cid),
                          "wedged.once")
    assert os.path.exists(marker)
    assert handle.daemon.paths.load_stats(record.cid) is not None


def test_early_drain_signal_parks_the_runner(daemon_thread, monkeypatch,
                                            tmp_path):
    """A SIGTERM that reaches a runner before it installs its own
    handler still parks the campaign.

    The forking process here has a Python SIGTERM handler that swallows
    the signal, as one left behind by an earlier in-process campaign
    would.  Had the child run that inherited handler, the signal would
    be lost and the runner would fuzz to the end of its budget, which
    is what made a drain hang."""
    from repro.serve import daemon as daemon_module

    runner_main = daemon_module.runner_main
    once = str(tmp_path / "signalled.once")

    def signalled_early(*args, **kwargs):
        # In the forked child, before runner_main installs its handler.
        if not os.path.exists(once):
            open(once, "w").close()
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(0.2)
        return runner_main(*args, **kwargs)

    monkeypatch.setattr(daemon_module, "runner_main", signalled_early)
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        handle = daemon_thread()
        handle.start()
        record = handle.daemon.submit({**VALID, "budget": 5.0})
        wait_until(lambda: record.drained or record.terminal
                   or record.deaths, what=f"{record.cid} to leave RUNNING")
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert record.drained
    assert record.deaths == []


def test_spawn_faults_back_off_then_retire(daemon_thread):
    handle = daemon_thread(fault_plan="serve-spawn:1", max_deaths=3,
                           restart_backoff=0.01, exit_when_idle=True)
    handle.start()
    record = handle.daemon.submit(dict(VALID))
    handle.thread.join(timeout=60)
    assert handle.exit_status == 0
    assert record.state == "retired"
    assert handle.daemon.spawn_faults == 3
    assert "spawn fault" in record.last_exit
    # The campaign never ran: no checkpoint, no stats.
    assert not os.path.exists(handle.daemon.paths.checkpoint(record.cid))
    assert handle.daemon.paths.load_stats(record.cid) is None


# ----------------------------------------------------------------------
# Recovery table reconstruction (unit-level, no daemon loop)
# ----------------------------------------------------------------------
@pytest.fixture
def seeded_root(tmp_path):
    """A serve dir with four journaled campaigns in distinct phases."""
    root = str(tmp_path / "serve")
    paths = ServePaths(root)
    paths.make_dirs()
    journal = SubmissionJournal(paths.journal)
    request = {"tenant": "acme", "workload": "btree", "config": "pmfuzz",
               "budget": TINY_BUDGET, "seed": 5}
    # c1: accepted, never started.  c2: finished, commit lost.
    # c3: retired, commit lost.  c4: unrunnable on this daemon (chaos).
    journal.append("acme-c000001", dict(request))
    journal.append("acme-c000002", dict(request))
    paths.write_stats("acme-c000002", FuzzStats(workload_name="btree"))
    journal.append("acme-c000003", dict(request))
    paths.write_retired("acme-c000003")
    journal.append("acme-c000004", {**request, "chaos": "fail"})
    return root


def test_recover_rebuilds_the_table_from_artifacts(seeded_root):
    daemon = ServeDaemon(seeded_root, quiet=True)
    daemon.recover()
    states = {cid: r.state for cid, r in daemon.records.items()}
    assert states == {
        "acme-c000001": "queued",
        "acme-c000002": "done",
        "acme-c000003": "retired",
        "acme-c000004": "retired",  # chaos without --enable-chaos
    }
    assert daemon.recovered == 1
    # Lost commits were re-applied; only the runnable intent remains.
    pending = {cid for _, cid, _ in daemon.journal.pending()}
    assert pending == {"acme-c000001"}
    # Sequence numbering continues past every recovered id.
    assert daemon._seq == 4


def test_recover_is_idempotent(seeded_root):
    """A second recovery (crash during the first) converges: terminal
    campaigns keep their artifacts, only live work is re-queued."""
    ServeDaemon(seeded_root, quiet=True).recover()
    second = ServeDaemon(seeded_root, quiet=True)
    second.recover()
    # The first recovery committed the terminal intents, so only the
    # runnable campaign is still journaled — and still queued.
    assert {cid: r.state for cid, r in second.records.items()} == \
        {"acme-c000001": "queued"}
    paths = second.paths
    assert paths.terminal_state("acme-c000002") == "done"
    assert paths.terminal_state("acme-c000003") == "retired"
    assert paths.terminal_state("acme-c000004") == "retired"


def test_recovered_queue_runs_to_done(seeded_root):
    daemon = ServeDaemon(seeded_root, quiet=True, poll_interval=0.02,
                         checkpoint_every=0.1, port=0,
                         exit_when_idle=True)
    assert daemon.run(install_signals=False) == 0
    assert daemon.records["acme-c000001"].state == "done"
    assert daemon.journal.pending() == []


def test_recover_drops_damaged_intents(tmp_path):
    root = str(tmp_path / "serve")
    paths = ServePaths(root)
    paths.make_dirs()
    journal = SubmissionJournal(paths.journal)
    path = journal.append("acme-c000001", {"tenant": "acme",
                                           "workload": "btree",
                                           "budget": 1.0})
    with open(path, "r+b") as fh:
        fh.write(b"\x00\x00\x00\x00")
    daemon = ServeDaemon(root, quiet=True)
    daemon.recover()
    assert daemon.records == {}
    assert daemon.journal.dropped_damaged == 1
