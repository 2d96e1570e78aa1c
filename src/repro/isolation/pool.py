"""Fork-server worker pool: real process isolation for test execution.

:class:`ForkWorkerPool` owns N worker subprocesses, each forked from the
campaign process with the executor already constructed (the AFL++ fork
server of Section 4.7: fork-after-init, so per-execution startup cost is
one pipe round-trip, not an interpreter launch).  Jobs are dispatched
round-robin; every dispatch is guarded by a *wall-clock* watchdog — a
worker that fails to produce a complete result frame by the deadline is
SIGKILLed and reaped, which is the only mechanism that can stop a
genuinely runaway target (a true infinite loop, unbounded allocation,
recursion blowout) that virtual time can never interrupt.

Each worker is reached through one pair of anonymous pipes carrying
length-prefixed pickle frames (:mod:`repro.isolation.protocol`): one
job frame out, one reply frame back.  :meth:`submit_batch` amortizes
that round-trip over N jobs on one worker.

Workers are recycled after a configurable number of executions (leak
hygiene, AFL++'s ``AFL_FORKSRV_INIT``-style periodic re-fork) and after
any abnormal exit.  The pool reports *what* happened (deadline expiry,
death with decoded exit status); mapping that onto the campaign's error
taxonomy and triage bundles is the backend's job.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from typing import Any, List, Optional, Sequence, Tuple

from repro.isolation.protocol import (FrameDeadline, PipeClosed,
                                      ProtocolError, read_frame, write_frame)
from repro.isolation.worker import worker_main


class WorkerUnavailableError(RuntimeError):
    """The pool cannot fork workers on this platform."""


class WorkerDeath(Exception):
    """A worker died before delivering its result frame."""

    def __init__(self, exit_detail: str) -> None:
        super().__init__(exit_detail or "worker died")
        self.exit_detail = exit_detail


class WatchdogExpired(Exception):
    """The wall-clock deadline passed; the worker was SIGKILLed."""

    def __init__(self, deadline_s: float, exit_detail: str) -> None:
        super().__init__(f"no result within {deadline_s:.3f}s wall clock")
        self.deadline_s = deadline_s
        self.exit_detail = exit_detail


def describe_wait_status(status: int) -> str:
    """Human-readable decoding of an ``os.waitpid`` status word."""
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        try:
            name = signal.Signals(sig).name
        except ValueError:
            name = f"signal {sig}"
        return f"killed by {name}"
    if os.WIFEXITED(status):
        return f"exited with status {os.WEXITSTATUS(status)}"
    return f"wait status {status}"


class _Worker:
    __slots__ = ("pid", "job_fd", "result_fd", "execs")

    def __init__(self, pid: int, job_fd: int, result_fd: int) -> None:
        self.pid = pid
        self.job_fd = job_fd  # parent-side write end of the job pipe
        self.result_fd = result_fd  # parent-side read end of the replies
        self.execs = 0

    def close_fds(self) -> None:
        for fd in (self.job_fd, self.result_fd):
            try:
                os.close(fd)
            except OSError:
                pass


class ForkWorkerPool:
    """N forked workers behind a round-robin job dispatcher.

    Args:
        executor: the campaign executor the forked children inherit.
        workers: pool size (workers are forked lazily, on first use).
        wall_timeout: per-job wall-clock deadline in real seconds.
        rss_limit_bytes: per-worker address-space ceiling (None = off).
        max_execs_per_worker: recycle a worker after this many jobs.
        shutdown_grace: seconds to wait for a graceful exit before
            escalating to SIGKILL.
    """

    def __init__(
        self,
        executor,
        workers: int = 1,
        wall_timeout: float = 10.0,
        rss_limit_bytes: Optional[int] = None,
        max_execs_per_worker: int = 256,
        shutdown_grace: float = 2.0,
    ) -> None:
        if not hasattr(os, "fork"):
            raise WorkerUnavailableError("os.fork is unavailable")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.executor = executor
        self.wall_timeout = wall_timeout
        self.rss_limit_bytes = rss_limit_bytes
        self.max_execs_per_worker = max_execs_per_worker
        self.shutdown_grace = shutdown_grace
        self._workers: List[Optional[_Worker]] = [None] * workers
        self._next = 0
        self.spawned = 0
        self.recycled = 0

    # ------------------------------------------------------------------
    # Spawning and reaping
    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        job_r, job_w = os.pipe()
        result_r, result_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            # Child: keep only this worker's ends.  Closing the
            # parent-side ends of every sibling is what makes EOF a
            # reliable death signal — otherwise a surviving sibling
            # would hold a dead worker's write end open forever.
            try:
                os.close(job_w)
                os.close(result_r)
                for sibling in self._workers:
                    if sibling is not None:
                        sibling.close_fds()
                worker_main(self.executor, job_r, result_w,
                            rss_limit_bytes=self.rss_limit_bytes)
            finally:
                os._exit(1)  # worker_main never returns; belt and braces
        os.close(job_r)
        os.close(result_w)
        self.spawned += 1
        return _Worker(pid=pid, job_fd=job_w, result_fd=result_r)

    def _kill_and_reap(self, slot: int) -> str:
        """SIGKILL the worker in ``slot``, reap it, return exit detail."""
        worker = self._workers[slot]
        self._workers[slot] = None
        if worker is None:
            return ""
        try:
            os.kill(worker.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        worker.close_fds()
        try:
            _, status = os.waitpid(worker.pid, 0)
        except ChildProcessError:
            return "already reaped"
        return describe_wait_status(status)

    def _retire(self, slot: int) -> None:
        """Gracefully recycle the worker in ``slot`` (EOF, wait, kill)."""
        worker = self._workers[slot]
        self._workers[slot] = None
        if worker is None:
            return
        worker.close_fds()  # job-pipe EOF tells the child to exit
        deadline = time.monotonic() + self.shutdown_grace
        while time.monotonic() < deadline:
            try:
                pid, _ = os.waitpid(worker.pid, os.WNOHANG)
            except ChildProcessError:
                break
            if pid:
                break
            time.sleep(0.01)
        else:
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                os.waitpid(worker.pid, 0)
            except ChildProcessError:
                pass
        self.recycled += 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _checkout(self) -> Tuple[int, _Worker]:
        """Pick the next round-robin slot, spawning lazily."""
        slot = self._next
        self._next = (self._next + 1) % len(self._workers)
        worker = self._workers[slot]
        if worker is None:
            worker = self._workers[slot] = self._spawn()
        return slot, worker

    def _account(self, slot: int, execs: int) -> None:
        worker = self._workers[slot]
        worker.execs += execs
        if worker.execs >= self.max_execs_per_worker:
            self._retire(slot)

    def _round_trip(self, frame: tuple, budget: float) -> Tuple[int, Any]:
        """Send ``frame`` to the next worker; its reply within ``budget``.

        Every failure leaves the worker SIGKILLed and reaped: a deadline
        miss raises :class:`WatchdogExpired`, a broken pipe, EOF or
        undecodable frame raises :class:`WorkerDeath`.
        """
        slot, worker = self._checkout()
        try:
            write_frame(worker.job_fd, frame)
        except OSError:
            raise WorkerDeath(self._kill_and_reap(slot)) from None
        try:
            reply = read_frame(worker.result_fd,
                               deadline=time.monotonic() + budget)
        except FrameDeadline:
            detail = self._kill_and_reap(slot)
            raise WatchdogExpired(budget, detail) from None
        except (PipeClosed, ProtocolError) as exc:
            detail = self._kill_and_reap(slot)
            raise WorkerDeath(detail or str(exc)) from None
        return slot, reply

    def submit(self, job_kind: str, image, data: bytes,
               kwargs: dict) -> tuple:
        """Run one job on the next worker; returns the reply frame.

        ``image`` is a :class:`~repro.pmem.image.PMImage` for a ``run``
        job and raw image bytes for a ``raw`` job; it is pickled into
        the frame as given.

        Raises:
            WatchdogExpired: no complete result by the wall deadline
                (the worker has been SIGKILLed and reaped).
            WorkerDeath: the worker died mid-job (already reaped).
        """
        slot, reply = self._round_trip(
            ("job", job_kind, image, bytes(data), kwargs),
            self.wall_timeout)
        self._account(slot, 1)
        return reply

    def submit_batch(self, jobs: Sequence[tuple]) -> List[tuple]:
        """Run N jobs back-to-back on one worker; returns their replies.

        Each job is a ``(job_kind, image, data, kwargs)`` tuple, as for
        :meth:`submit`; a batch of jobs on one image pickles that image
        once (the pickler memoizes the repeated object).  The whole
        batch shares one frame round-trip and one wall-clock deadline
        of ``wall_timeout * len(jobs)``; a hang anywhere in the
        batch therefore still trips the watchdog, and a worker death
        loses the batch as a unit (the caller re-dispatches singly).

        Raises:
            WatchdogExpired / WorkerDeath: as :meth:`submit`.
        """
        if not jobs:
            return []
        if len(jobs) == 1:
            return [self.submit(*jobs[0])]
        slot, reply = self._round_trip(
            ("batch", [(kind, image, bytes(data), kwargs)
                       for kind, image, data, kwargs in jobs]),
            self.wall_timeout * len(jobs))
        if (not isinstance(reply, tuple) or reply[0] != "batch"
                or len(reply[1]) != len(jobs)):
            detail = self._kill_and_reap(slot)
            raise WorkerDeath(detail or "malformed batch reply")
        self._account(slot, len(jobs))
        return list(reply[1])

    # ------------------------------------------------------------------
    @property
    def live_workers(self) -> int:
        return sum(1 for w in self._workers if w is not None)

    def close(self) -> None:
        """Retire every live worker (the pool respawns lazily on use)."""
        for slot in range(len(self._workers)):
            if self._workers[slot] is not None:
                self._retire(slot)
                self.recycled -= 1  # closing is not a recycle event

    def __del__(self) -> None:  # best effort: never leak children
        try:
            self.close()
        except Exception:
            pass
