"""The child side of the fork server: one worker's job loop.

A worker is forked from the campaign process, inherits the fully
constructed :class:`~repro.fuzz.executor.Executor` (workload factory,
cost model, bug injector — no pickling of campaign state, exactly like
AFL++'s fork server inheriting the initialized target), applies its
resource ceiling, and then services ``job`` / ``batch`` frames until the
parent closes the pipe or sends ``shutdown``.

Three deliberate asymmetries with in-process execution:

* ``executor.env_faults`` is cleared in the child — the *parent* draws
  the injected-fault stream before dispatching (see
  ``Executor._env_check``), so the fault RNG never diverges between
  backends.
* after every job the worker reports the bug injector's *per-job*
  ``triggered`` set (cleared before each job), because that is the one
  piece of cross-run process state the campaign reads back after
  fuzzing; the parent merges exactly the jobs it consumes, so a
  speculatively executed batch job the parent later discards leaves no
  trace in the campaign's trigger records — identical to in-process
  execution, where the discarded job never runs at all.
* a ``batch`` frame executes N jobs back-to-back and answers with one
  frame of N replies — the Section-4.7 dispatch cost (frame round-trip
  + result serialization) is paid once per batch instead of once per
  execution.  Result serialization pickles only what the campaign
  reads: the executor leaves the 256 KiB final image out of the result
  unless indirect image fuzzing consumes it.

A ``run`` job carries its input :class:`~repro.pmem.image.PMImage` as
an object and the worker executes it as received — no
``from_bytes`` checksum pass, exactly like the in-process executor
handed a staged image.  A ``raw`` job carries bytes, because checking
those bytes (AFL++ w/ ImgFuzz's directly mutated image) is what the
execution measures.
"""

from __future__ import annotations

import os
import sys
import traceback
from typing import Optional

from repro.errors import ReproError
from repro.isolation.protocol import PipeClosed, read_frame, write_frame


def apply_rss_limit(limit_bytes: Optional[int]) -> None:
    """Cap the worker's address space (``RLIMIT_AS``).

    Linux does not enforce ``RLIMIT_RSS``, so the address-space limit is
    the practical ceiling: an unbounded allocation inside the target
    turns into a ``MemoryError`` (contained by the executor as a harness
    fault) or, for allocations the interpreter cannot survive, a worker
    death the pool triages.  Silently skipped where unsupported.
    """
    if not limit_bytes:
        return
    try:
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    except (ImportError, ValueError, OSError):
        pass


def _aux(executor) -> dict:
    """Per-job sideband data the parent folds back into its own state."""
    injector = executor.injector
    triggered = getattr(injector, "triggered", None)
    return {"triggered": set(triggered) if triggered else None}


def _run_job(executor, job_kind: str, image, data: bytes,
             kwargs: dict) -> tuple:
    """Execute one job; returns its complete reply frame payload."""
    injector = executor.injector
    triggered = getattr(injector, "triggered", None)
    if triggered is not None:
        # Per-job attribution: the reply carries only the bugs *this*
        # job fired, so the parent can merge consumed batch jobs and
        # discard speculative ones without cross-contamination.
        triggered.clear()
    try:
        if job_kind == "raw":
            result = executor.run_raw_image(image, data)
        else:
            result = executor.run(image, data, **kwargs)
        return ("ok", result, _aux(executor))
    except ReproError as exc:
        # Harness-level signal; re-raised verbatim in the parent so
        # the supervisor classifies it exactly as it would in-process.
        return ("err", exc, _aux(executor))


def worker_loop(executor, job_fd: int, result_fd: int) -> None:
    """Service jobs until EOF or an explicit shutdown frame."""
    executor.env_faults = None  # the parent draws the fault stream
    while True:
        try:
            msg = read_frame(job_fd)
        except PipeClosed:
            return
        tag = msg[0]
        if tag == "shutdown":
            return
        if tag == "batch":
            write_frame(result_fd, ("batch",
                                    [_run_job(executor, *job_msg)
                                     for job_msg in msg[1]]))
            continue
        write_frame(result_fd, _run_job(executor, *msg[1:]))


def worker_main(executor, job_fd: int, result_fd: int,
                rss_limit_bytes: Optional[int] = None) -> "NoReturn":  # noqa: F821
    """Post-fork entry point; never returns into the parent's code."""
    exit_code = 0
    try:
        apply_rss_limit(rss_limit_bytes)
        worker_loop(executor, job_fd, result_fd)
    except BaseException:  # noqa: BLE001 — a dying worker must not re-enter
        exit_code = 1
        try:
            sys.stderr.write(traceback.format_exc())
            sys.stderr.flush()
        except Exception:
            pass
    finally:
        os._exit(exit_code)
