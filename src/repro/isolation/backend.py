"""Execution backends: *where* a test case runs, behind one seam.

The campaign loop (engine → supervisor) never calls the raw
:class:`~repro.fuzz.executor.Executor` directly any more; it calls an
:class:`ExecutionBackend`.  Two implementations exist:

* :class:`InProcessBackend` — the historical behavior: the executor
  runs in the campaign process.  Zero overhead, but a genuinely runaway
  target (true infinite loop, unbounded allocation) wedges the whole
  campaign, because virtual time cannot interrupt real execution.
* :class:`ForkServerBackend` — the paper's Section-4.7 / AFL++ fork
  server made literal: every execution happens in a forked worker
  subprocess behind a length-prefixed pipe, guarded by a wall-clock
  watchdog (SIGKILL + reap on deadline) and an RSS ceiling.  Results
  are bit-identical to in-process execution for well-behaved targets;
  misbehaving ones are converted into the campaign's existing failure
  taxonomy (:class:`~repro.errors.ExecTimeoutError`,
  :class:`~repro.errors.WorkerCrashError`) with a crash-triage bundle
  on disk, so the supervisor's retry/quarantine/timeout accounting
  applies unchanged.  A ``run`` job ships its input
  :class:`~repro.pmem.image.PMImage` object (a ``raw`` job its bytes,
  which are the input under test), and a reply carries the final image
  only when the campaign reads it; a triage bundle serializes the
  image when it is written, so its format is the same for both kinds.

:func:`create_backend` is the selection point, with graceful
degradation: asking for ``fork`` on a platform without ``os.fork``
falls back to in-process execution and *reports why*, instead of
failing the campaign.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from typing import (TYPE_CHECKING, Callable, Deque, Optional, Sequence,
                    Tuple, Union)

from repro.core.config import RunConfig
from repro.core.storage import TriageStore
from repro.errors import ExecTimeoutError, WorkerCrashError
from repro.isolation.pool import ForkWorkerPool, WatchdogExpired, WorkerDeath
from repro.observe.bus import NULL_BUS
from repro.pmem.image import PMImage

if TYPE_CHECKING:
    # Annotations only: importing repro.fuzz here at run time closes the
    # cycle repro.fuzz -> fuzz.engine -> isolation.backend -> repro.fuzz.
    from repro.fuzz.executor import ExecResult, Executor

class ExecutionBackend:
    """Interface between the supervisor and test-case execution."""

    name = "?"
    stats = None  #: optional FuzzStats for backend-level counters
    #: Trace hook points (attached by the engine, else inert): worker
    #: SIGKILLs and deaths are reported as ``worker_kill`` events.
    trace = NULL_BUS
    vclock_fn = None
    #: How many executions one worker dispatch may carry (1 = no batching).
    batch_execs = 1

    def run(self, image: PMImage, data: bytes, **kwargs) -> ExecResult:
        raise NotImplementedError

    def run_raw_image(self, image_bytes: bytes, data: bytes) -> ExecResult:
        raise NotImplementedError

    def plan(self, jobs: Sequence[tuple]) -> None:
        """Advise the backend of the jobs the caller will request next.

        Each job is a ``(job_kind, image, data, kwargs)`` tuple in the
        exact order the caller intends to run them; ``image`` is the
        input :class:`~repro.pmem.image.PMImage` of a ``run`` job and
        the raw image bytes of a ``raw`` job.  Backends that
        batch use the plan to ship several jobs per worker dispatch; the
        default backend ignores it (a no-op for in-process execution).
        """

    def discard_plan(self) -> None:
        """Drop any outstanding plan and speculative results."""

    def close(self) -> None:
        """Release backend resources (workers respawn lazily on reuse)."""


class InProcessBackend(ExecutionBackend):
    """Run test cases in the campaign process (no isolation)."""

    name = "none"

    def __init__(self, executor: Executor) -> None:
        self.executor = executor

    def run(self, image: PMImage, data: bytes, **kwargs) -> ExecResult:
        return self.executor.run(image, data, **kwargs)

    def run_raw_image(self, image_bytes: bytes, data: bytes) -> ExecResult:
        return self.executor.run_raw_image(image_bytes, data)


class ForkServerBackend(ExecutionBackend):
    """Run every test case in a forked, watchdogged worker subprocess."""

    name = "fork"

    def __init__(
        self,
        executor: Executor,
        run_config: RunConfig = RunConfig(),
        stats=None,
        campaign_info: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.executor = executor
        self.pool = ForkWorkerPool(
            executor, workers=run_config.isolation_workers,
            wall_timeout=run_config.exec_wall_timeout,
            rss_limit_bytes=run_config.worker_rss_limit,
            max_execs_per_worker=run_config.worker_max_execs)
        self.wall_timeout = run_config.exec_wall_timeout
        self.triage = (TriageStore(run_config.triage_dir)
                       if run_config.triage_dir else None)
        self.stats = stats
        self.campaign_info = campaign_info or (lambda: {})
        self.batch_execs = run_config.batch_execs
        #: Jobs the engine has announced for the current round, in order.
        self._plan: Deque[tuple] = deque()
        #: Speculatively executed (job, reply) pairs awaiting consumption.
        self._pending: Deque[Tuple[tuple, tuple]] = deque()

    # ------------------------------------------------------------------
    def run(self, image: PMImage, data: bytes, **kwargs) -> ExecResult:
        # The parent draws the injected-fault stream (identical order to
        # in-process execution); the child's injector is disarmed.
        self.executor._env_check()
        # The image object itself goes into the job frame: pickle ships
        # its payload once per frame (memoized across a batch), and the
        # worker runs it without re-serializing or re-checksumming.
        return self._dispatch("run", image, bytes(data), kwargs)

    def run_raw_image(self, image_bytes: bytes, data: bytes) -> ExecResult:
        # The bytes are the input here: validating them is the point.
        self.executor._env_check()
        return self._dispatch("raw", bytes(image_bytes), bytes(data), {})

    # ------------------------------------------------------------------
    # Batching: plan → speculative batch dispatch → ordered consumption
    # ------------------------------------------------------------------
    def plan(self, jobs: Sequence[tuple]) -> None:
        self.discard_plan()
        self._plan.extend(jobs)

    def discard_plan(self) -> None:
        self._plan.clear()
        self._pending.clear()

    def _obtain(self, job: tuple) -> tuple:
        """Return the reply for ``job``, batching when the plan matches.

        A job that matches the head of the speculative-result queue is
        answered from it; a job that matches the head of the plan pulls
        the next ``batch_execs`` planned jobs into one worker dispatch
        (the extra replies are queued for the following calls).  A job
        matching neither — crash-image re-executions interleave with the
        planned children mid-round — simply passes through as a single
        dispatch; speculation stays parked until the planned order
        resumes.  Execution is deterministic per job tuple, so a parked
        reply is interchangeable with a fresh one, and replies the
        caller never consumes are dropped by :meth:`discard_plan` with
        their sideband state unmerged — exactly as if those jobs had
        never run.
        """
        if self._pending and self._pending[0][0] == job:
            return self._pending.popleft()[1]
        if self.batch_execs > 1 and self._plan and self._plan[0] == job:
            batch = [self._plan.popleft()
                     for _ in range(min(self.batch_execs, len(self._plan)))]
            replies = self.pool.submit_batch(batch)
            self._pending.extend(zip(batch, replies))
            self._pending.popleft()
            return replies[0]
        if self._plan and self._plan[0] == job:
            self._plan.popleft()
        return self.pool.submit(*job)

    def _dispatch(self, job_kind: str, image: Union[PMImage, bytes],
                  data: bytes, kwargs: dict) -> ExecResult:
        try:
            reply = self._obtain((job_kind, image, data, kwargs))
        except WatchdogExpired as exc:
            self._count("watchdog_kills")
            self._emit_kill("watchdog", exc.exit_detail)
            self._write_triage("watchdog-timeout", image, data, kwargs,
                               exit_detail=exc.exit_detail,
                               error=str(exc))
            raise ExecTimeoutError(
                f"wall-clock watchdog SIGKILLed the worker after "
                f"{exc.deadline_s:.3f}s ({exc.exit_detail})",
                site="exec-hang") from exc
        except WorkerDeath as exc:
            self._count("worker_crashes")
            self._emit_kill("worker-death", exc.exit_detail)
            self._write_triage("worker-death", image, data, kwargs,
                               exit_detail=exc.exit_detail,
                               error=str(exc))
            raise WorkerCrashError(
                f"isolation worker died mid-execution ({exc.exit_detail})",
                exit_detail=exc.exit_detail) from exc
        finally:
            self._sync_pool_counters()
        tag, payload, aux = reply
        self._merge_aux(aux)
        if tag == "err":
            raise payload  # a ReproError raised inside the worker
        return payload

    # ------------------------------------------------------------------
    def _merge_aux(self, aux: dict) -> None:
        triggered = aux.get("triggered")
        injector = self.executor.injector
        if triggered and injector is not None \
                and hasattr(injector, "triggered"):
            injector.triggered |= triggered

    def _count(self, attr: str, n: int = 1) -> None:
        if self.stats is not None:
            setattr(self.stats, attr, getattr(self.stats, attr) + n)

    def _emit_kill(self, reason: str, exit_detail: str = "") -> None:
        vtime = self.vclock_fn() if self.vclock_fn is not None else 0.0
        self.trace.emit("worker_kill", vtime, reason=reason,
                        exit_detail=exit_detail)

    def _sync_pool_counters(self) -> None:
        if self.stats is not None:
            self.stats.worker_recycles = self.pool.recycled

    def _write_triage(self, reason: str, image: Union[PMImage, bytes],
                      data: bytes, kwargs: dict, exit_detail: str = "",
                      error: str = "") -> Optional[str]:
        if self.triage is None:
            return None
        # A bundle always stores serialized image bytes, whichever form
        # the job carried, so ``triage --replay`` reads every bundle.
        image_bytes = (image.to_bytes() if isinstance(image, PMImage)
                       else image)
        info = self.campaign_info() or {}
        meta = {
            "reason": reason,
            "exit_detail": exit_detail,
            "error": error,
            "wall_timeout": self.wall_timeout,
            "exec_kwargs": {k: v for k, v in kwargs.items()
                            if isinstance(v, (int, float, str, bool,
                                              type(None)))},
            "workload": info.get("workload", ""),
            "config": info.get("config", ""),
            "bugs": list(info.get("bugs", [])),
            "engine_kwargs": dict(info.get("engine_kwargs", {})),
        }
        path = self.triage.write_bundle(reason, data, image_bytes, meta)
        self._count("triage_bundles")
        return path

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.discard_plan()
        self.pool.close()


# ----------------------------------------------------------------------
# Selection with graceful degradation
# ----------------------------------------------------------------------
def fork_unavailable_reason() -> str:
    """Why fork isolation cannot work here ('' = it can)."""
    if not hasattr(os, "fork"):
        return "os.fork is unavailable on this platform"
    if sys.platform in ("win32", "emscripten", "wasi"):
        return f"fork isolation is unsupported on {sys.platform}"
    return ""


def create_backend(
    executor: Executor,
    run_config: RunConfig = RunConfig(),
    *,
    stats=None,
    campaign_info: Optional[Callable[[], dict]] = None,
) -> Tuple[ExecutionBackend, str]:
    """Build ``run_config``'s backend; returns ``(backend, fallback_reason)``.

    ``fallback_reason`` is non-empty when ``fork`` was requested but the
    platform cannot provide it — the returned backend is then the
    in-process one and the campaign *runs anyway* (graceful
    degradation), with the reason surfaced through
    ``FuzzStats.isolation_fallback``.
    """
    if run_config.isolation == "none":
        return InProcessBackend(executor), ""
    reason = fork_unavailable_reason()
    if reason:
        return InProcessBackend(executor), reason
    backend = ForkServerBackend(executor, run_config, stats=stats,
                                campaign_info=campaign_info)
    return backend, ""
