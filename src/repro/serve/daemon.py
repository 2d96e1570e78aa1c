"""The campaign-as-a-service daemon: pool, watchdog, recovery, drain.

``python -m repro serve <dir>`` turns the one-shot CLI into a
long-lived serving plane.  The daemon owns a pool of campaign runner
processes (:mod:`repro.serve.runner`), accepts submissions over a
localhost REST API (:mod:`repro.serve.api`), and applies the same
crash-recovery discipline to its *control* state that the corpus
database applies to data:

* **Durable acceptance** — a submission is acknowledged only after its
  intent record landed in the write-ahead submission journal
  (:mod:`repro.serve.journal`).  A SIGKILLed daemon restarts, replays
  the journal against the per-campaign artifacts, and every accepted
  campaign resumes (checkpoint present), re-queues (never started), or
  is recognized as already terminal — exactly once, no loss, no
  duplicate runs.
* **Watchdog with escalation** — runners renew heartbeat leases (the
  fleet's monotonic-lease machinery); a stale lease escalates
  SIGTERM → ``kill_grace`` → SIGKILL, the death feeds an exponential
  restart backoff, and ``max_deaths`` deaths inside ``death_window``
  retire the campaign via the circuit breaker (terminal state
  ``retired``, journal intent committed).
* **Two-stage drain** — the first SIGTERM/SIGINT stops acceptance
  (``/readyz`` flips to 503), forwards graceful stops so every running
  campaign checkpoints (runner exit 75), and exits 0 once the pool is
  empty; queued work stays journaled for the next start.  The second
  signal hard-exits.
* **Seeded fault coverage** — the daemon's own failure paths are fault
  sites (``serve-journal``, ``serve-accept``, ``serve-spawn``) in the
  standard ``--fault-plan`` grammar, drawn from the host fault stream
  so injected daemon faults never perturb campaign trajectories.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from typing import Dict, List, Optional

from repro.errors import HarnessFaultError
from repro.orchestrate.heartbeat import read_heartbeat
from repro.orchestrate.signals import GracefulStop
from repro.resilience.faults import EnvFaultInjector, as_fault_plan
from repro.serve.admission import AdmissionError, AdmissionPolicy
from repro.serve.journal import SubmissionJournal
from repro.serve.runner import DRAIN_EXIT, runner_main
from repro.serve.state import (DONE, QUEUED, RETIRED, RUNNING,
                               CampaignRecord, ServePaths, campaign_id,
                               parse_campaign_id)


class ServeDaemon:
    """One serve directory's daemon: REST admission + supervised pool."""

    def __init__(self, root: str,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 max_running: int = 2,
                 tenant_quota: int = 2,
                 queue_limit: int = 32,
                 max_budget: float = 120.0,
                 lease_s: float = 5.0,
                 spawn_grace: float = 10.0,
                 kill_grace: float = 2.0,
                 poll_interval: float = 0.05,
                 restart_backoff: float = 0.25,
                 max_deaths: int = 3,
                 death_window: float = 30.0,
                 checkpoint_every: float = 0.25,
                 fault_plan=None,
                 enable_chaos: bool = False,
                 exit_when_idle: bool = False,
                 quiet: bool = False) -> None:
        self.paths = ServePaths(root)
        self.paths.make_dirs()
        self.host = host
        self.port = port
        self.max_running = max_running
        self.lease_s = lease_s
        self.spawn_grace = spawn_grace
        self.kill_grace = kill_grace
        self.poll_interval = poll_interval
        self.restart_backoff = restart_backoff
        self.max_deaths = max_deaths
        self.death_window = death_window
        self.checkpoint_every = checkpoint_every
        self.exit_when_idle = exit_when_idle
        self.quiet = quiet
        plan = as_fault_plan(fault_plan)
        self.injector = EnvFaultInjector(plan) if plan is not None else None
        self.journal = SubmissionJournal(self.paths.journal, self.injector)
        self.policy = AdmissionPolicy(max_budget=max_budget,
                                      tenant_quota=tenant_quota,
                                      queue_limit=queue_limit,
                                      allow_chaos=enable_chaos)
        self.records: Dict[str, CampaignRecord] = {}
        self.lock = threading.RLock()
        self._seq = 0
        self._draining = False
        self._server = None
        self._server_thread: Optional[threading.Thread] = None
        self.recovered = 0  #: campaigns re-queued/resumed at startup
        self.spawn_faults = 0  #: serve-spawn faults absorbed

    # ------------------------------------------------------------------
    # Introspection (used by the API layer; all under self.lock)
    # ------------------------------------------------------------------
    @property
    def accepting(self) -> bool:
        return not self._draining

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[serve] {message}", file=sys.stderr)

    # ------------------------------------------------------------------
    # Admission (called from the HTTP thread)
    # ------------------------------------------------------------------
    def submit(self, body: object) -> CampaignRecord:
        """Validate, quota-check, journal, and queue one submission.

        Raises :class:`AdmissionError` (carrying the HTTP status) on
        rejection, or :class:`~repro.errors.HarnessFaultError` when an
        injected ``serve-accept``/``serve-journal`` fault fires — the
        API maps the latter to a retryable 503; nothing was accepted.
        """
        with self.lock:
            if self._draining:
                raise AdmissionError(
                    "daemon is draining; not accepting submissions",
                    http_status=503, retryable=True)
            if self.injector is not None:
                self.injector.check_host("serve-accept")
            submission = self.policy.validate(body)
            self.policy.check_quota(submission, self.records)
            # The sequence number is committed only once the append
            # succeeds, so a faulted/rejected submission never burns an
            # id — N accepted submissions always get ids 1..N no matter
            # how many injected accept faults interleave.
            seq = self._seq + 1
            cid = campaign_id(submission.tenant, seq)
            request = submission.as_dict()
            # Acceptance *is* this append: a fault or crash before it
            # returns means the client was never acknowledged and may
            # safely retry; a crash after it is recovered by replay.
            intent_path = self.journal.append(cid, request)
            self._seq = seq
            record = CampaignRecord(cid=cid, tenant=submission.tenant,
                                    request=request,
                                    intent_path=intent_path)
            self.records[cid] = record
            self._write_request_copy(record)
            self._log(f"accepted {cid} ({submission.workload}/"
                      f"{submission.config}, budget "
                      f"{submission.budget} vsec)")
            return record

    def _write_request_copy(self, record: CampaignRecord) -> None:
        """Informational request.json beside the campaign's artifacts
        (the journal record is authoritative; this is for humans)."""
        import json

        from repro._util import atomic_write_bytes

        os.makedirs(self.paths.campaign_dir(record.cid), exist_ok=True)
        atomic_write_bytes(
            self.paths.request_file(record.cid),
            json.dumps(record.request, sort_keys=True).encode("utf-8"),
            fsync=False)

    def campaign_view(self, cid: str) -> Optional[dict]:
        """REST detail view: record + live status + terminal summary."""
        from repro.observe.monitor import read_status

        with self.lock:
            record = self.records.get(cid)
            if record is None:
                return None
            view = record.public_view()
        view["status"] = read_status(self.paths.status_file(cid))
        if record.state == DONE:
            stats = self.paths.load_stats(cid)
            if stats is not None:
                view["result"] = {
                    "stop_reason": stats.stop_reason,
                    "executions": stats.executions,
                    "pm_paths": stats.final_pm_paths,
                    "branch_edges": stats.final_branch_edges,
                    "crash_images": stats.crash_images_generated,
                    "harness_faults": stats.harness_faults,
                }
        return view

    def list_view(self) -> List[dict]:
        with self.lock:
            return [self.records[cid].public_view()
                    for cid in sorted(self.records)]

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> None:
        """Rebuild the campaign table from journal + artifacts.

        Idempotent and crash-safe at every point: re-running recovery
        (or being killed during it) converges on the same table,
        because every resolution step is an atomic file operation the
        artifacts already reflect.
        """
        with self.lock:
            self._seq = self.paths.max_seq()
            for path, cid, request in self.journal.recover_pending():
                parsed = parse_campaign_id(cid)
                if parsed:
                    self._seq = max(self._seq, parsed[1])
                record = CampaignRecord(
                    cid=cid, tenant=parsed[0] if parsed else "unknown",
                    request=request, intent_path=path)
                self._fence_orphan(cid)
                terminal = self.paths.terminal_state(cid)
                if terminal is not None:
                    # Reached its terminal state before the crash; only
                    # the intent commit was lost.
                    record.state = terminal
                    self.journal.commit(path)
                    self.records[cid] = record
                    continue
                try:
                    self.policy.validate(dict(request))
                except AdmissionError as exc:
                    # A journaled request this daemon can no longer run
                    # (e.g. chaos hooks without --enable-chaos, or a
                    # ceiling lowered below its budget): retire it
                    # rather than crash-loop on it forever.
                    self._log(f"retiring unrunnable journaled campaign "
                              f"{cid}: {exc}")
                    self._retire(record, why=str(exc))
                    self.records[cid] = record
                    continue
                record.state = QUEUED
                self.records[cid] = record
                self.recovered += 1
                resumed = os.path.exists(self.paths.checkpoint(cid))
                self._log(f"recovered {cid} "
                          f"({'resuming from checkpoint' if resumed else 'queued, never started'})")
            if self.journal.dropped_damaged:
                self._log(f"dropped {self.journal.dropped_damaged} damaged "
                          "journal records (checksum failure)")

    def _fence_orphan(self, cid: str) -> None:
        """Kill a previous incarnation's still-running runner.

        A SIGKILLed daemon orphans its runner children; they keep
        fuzzing.  Before this daemon touches the campaign, any runner
        whose heartbeat lease is still live is fenced off — two runners
        must never share one campaign directory.  The unexpired-lease
        guard is what makes the kill safe against pid reuse: an active
        runner renews its lease every slice, while a record stale
        enough for its pid to have been recycled is long expired.
        """
        beat = read_heartbeat(self.paths.heartbeat(cid))
        if beat is None or beat.pid == os.getpid() or beat.is_stale():
            return
        try:
            os.kill(beat.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        self._log(f"fenced orphaned runner pid {beat.pid} for {cid}")
        # Not our child, so no waitpid: poll until the pid is gone (its
        # parent — init, after the daemon died — reaps it promptly).
        for _ in range(200):
            try:
                os.kill(beat.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, install_signals: bool = True) -> int:
        """Serve until drained (or idle, in ``exit_when_idle`` mode)."""
        from repro.serve.api import make_server

        self.recover()
        self._server = make_server(self, self.host, self.port)
        actual_host, actual_port = self._server.server_address[:2]
        self.paths.publish_endpoint(actual_host, actual_port)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True)
        self._server_thread.start()
        self._log(f"listening on http://{actual_host}:{actual_port} "
                  f"(serve dir {self.paths.root})")
        stop = GracefulStop(self.request_drain, label="serve") \
            if install_signals else None
        if stop is not None:
            stop.install()
        try:
            while True:
                self.tick()
                with self.lock:
                    active = [r for r in self.records.values()
                              if not r.terminal]
                    running = [r for r in active if r.pid is not None]
                    if self._draining and not running:
                        break
                    # "Idle" means every *known* campaign is terminal —
                    # a freshly started daemon with an empty table is
                    # waiting for work, not idle, or it would exit
                    # before the first submission could arrive.
                    if self.exit_when_idle and self.records and not active:
                        break
                time.sleep(self.poll_interval)
        finally:
            if stop is not None:
                stop.uninstall()
            self._server.shutdown()
            self._server_thread.join(timeout=5.0)
            self._server.server_close()
        with self.lock:
            pending = sum(1 for r in self.records.values()
                          if not r.terminal)
            done = sum(1 for r in self.records.values()
                       if r.state == DONE)
        self._log(f"exiting: {done} campaigns done, {pending} checkpointed "
                  "for the next start" if self._draining else
                  f"exiting idle: {done} campaigns done")
        return 0

    def request_drain(self) -> None:
        """First SIGTERM/SIGINT: stop accepting, checkpoint everything."""
        self._draining = True
        with self.lock:
            for record in self.records.values():
                if record.pid is not None:
                    self._signal(record.pid, signal.SIGTERM)
        self._log("draining: acceptance stopped, campaigns checkpointing")

    # ------------------------------------------------------------------
    # Supervision tick
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One supervision round: reap, watchdog, restart, spawn."""
        now = time.monotonic()
        with self.lock:
            for record in list(self.records.values()):
                if record.terminal:
                    continue
                if record.pid is not None:
                    self._reap(record, now)
                if record.pid is not None:
                    self._check_stale(record, now)
            if not self._draining:
                self._spawn_queued(now)

    def _spawn_queued(self, now: float) -> None:
        running = sum(1 for r in self.records.values()
                      if r.pid is not None)
        candidates = sorted(
            (r for r in self.records.values()
             if r.state == QUEUED and r.pid is None
             and now >= r.restart_at),
            key=lambda r: r.cid)
        for record in candidates:
            if running >= self.max_running:
                return
            if self._spawn(record):
                running += 1

    def _spawn(self, record: CampaignRecord) -> bool:
        if self.injector is not None:
            try:
                self.injector.check_host("serve-spawn")
            except HarnessFaultError as exc:
                # A failed spawn is a death with backoff, not a crash:
                # the campaign stays journaled and queued.
                self.spawn_faults += 1
                record.last_exit = f"spawn fault: {exc}"
                self._record_death(record, time.monotonic())
                return False
        os.makedirs(self.paths.campaign_dir(record.cid), exist_ok=True)
        sys.stdout.flush()
        sys.stderr.flush()
        # The child inherits this process's Python signal handlers (the
        # daemon's own drain handler, or whatever an embedding process
        # installed).  A drain SIGTERM that reached one of those before
        # the runner installs its own would be swallowed and the runner
        # would fuzz on to the end of its budget, so SIGTERM stays
        # blocked across the fork; the runner unblocks it once its
        # handler is in place, and an early SIGTERM is delivered there.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        pid = os.fork()
        if pid == 0:
            # Child: become the runner; never return into the daemon's
            # stack (no HTTP server, no atexit, no finally-blocks).
            status = 1
            try:
                status = runner_main(record.request, record.cid,
                                     self.paths.root,
                                     lease_s=self.lease_s,
                                     checkpoint_every=self.checkpoint_every)
            finally:
                os._exit(status)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        record.pid = pid
        record.spawned_at = time.monotonic()
        record.term_sent_at = 0.0
        record.state = RUNNING
        return True

    def _reap(self, record: CampaignRecord, now: float) -> None:
        try:
            pid, status = os.waitpid(record.pid, os.WNOHANG)
        except ChildProcessError:
            pid, status = record.pid, 1 << 8  # lost child = death
        if pid == 0:
            return
        record.pid = None
        if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0:
            if self.paths.load_stats(record.cid) is not None:
                record.state = DONE
                self.journal.commit(record.intent_path)
                self._log(f"{record.cid} done")
                return
            # Exit 0 without loadable stats: treat as a death so the
            # campaign resumes rather than silently losing its result.
            record.last_exit = "exit 0 without readable stats.bin"
            self._record_death(record, now)
            return
        if os.WIFEXITED(status) and os.WEXITSTATUS(status) == DRAIN_EXIT:
            # Checkpointed and stepped aside; stays journaled for the
            # next daemon start (or a later slot if drain is aborted).
            record.drained = True
            record.state = QUEUED
            self._log(f"{record.cid} checkpointed for drain "
                      f"(vtime preserved)")
            return
        from repro.isolation.pool import describe_wait_status
        record.last_exit = describe_wait_status(status)
        self._record_death(record, now)

    def _check_stale(self, record: CampaignRecord, now: float) -> None:
        """Watchdog: escalate a stale campaign stop → SIGKILL."""
        beat = read_heartbeat(self.paths.heartbeat(record.cid))
        if record.term_sent_at == 0.0:
            if beat is None:
                if now - record.spawned_at < self.spawn_grace:
                    return
            elif not beat.is_stale(now):
                return
            elif now - record.spawned_at < min(self.lease_s,
                                               self.spawn_grace):
                return  # stale file predates this (re)spawn
            # Stage 1: ask nicely — a live-but-slow runner checkpoints
            # and exits; a true wedge ignores this.
            self._signal(record.pid, signal.SIGTERM)
            record.term_sent_at = now
            self._log(f"{record.cid} stale heartbeat: sent SIGTERM "
                      f"(SIGKILL in {self.kill_grace:.1f}s)")
            return
        if now - record.term_sent_at < self.kill_grace:
            return
        # Stage 2: the grace expired; the watchdog takes over.
        self._signal(record.pid, signal.SIGKILL)
        self._reap_blocking(record)
        record.last_exit = record.last_exit or "watchdog SIGKILL"
        self._log(f"{record.cid} SIGKILLed by watchdog")
        self._record_death(record, time.monotonic())

    def _record_death(self, record: CampaignRecord, now: float) -> None:
        record.deaths.append(now)
        record.deaths = [t for t in record.deaths
                         if now - t <= self.death_window]
        if len(record.deaths) >= self.max_deaths:
            self._retire(record, why=record.last_exit or "repeated deaths")
            return
        record.backoff = (self.restart_backoff if record.backoff == 0
                          else record.backoff * 2)
        record.restart_at = now + record.backoff
        record.restarts += 1
        record.state = QUEUED
        self._log(f"{record.cid} died ({record.last_exit or 'unknown'}); "
                  f"restart in {record.backoff:.2f}s "
                  f"({len(record.deaths)}/{self.max_deaths} deaths)")

    def _retire(self, record: CampaignRecord, why: str = "") -> None:
        """Circuit breaker: a repeat offender reaches terminal state
        ``retired`` — marker first (fsynced), then the intent commit,
        so a crash between the two is recovered as already-terminal."""
        self.paths.write_retired(record.cid)
        self.journal.commit(record.intent_path)
        record.state = RETIRED
        self._log(f"{record.cid} retired after "
                  f"{len(record.deaths)} deaths "
                  f"({why or 'circuit breaker'})")

    # ------------------------------------------------------------------
    def _signal(self, pid: Optional[int], signum: int) -> None:
        if pid is None:
            return
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass

    def _reap_blocking(self, record: CampaignRecord) -> None:
        if record.pid is None:
            return
        from repro.isolation.pool import describe_wait_status
        try:
            _, status = os.waitpid(record.pid, 0)
            record.last_exit = describe_wait_status(status)
        except ChildProcessError:
            record.last_exit = "already reaped"
        record.pid = None
