"""Test-case execution under instrumentation, with the virtual cost model.

The executor is the reproduction's fork server + target binary: it takes
one test case (a PM image + raw command bytes), runs the workload under
branch coverage, PM-path tracking and trace collection, and returns the
sparse coverage maps plus the output images (the clean run's final
image only when the campaign reads it; see ``keep_final_image``).

Virtual time
------------
The paper's Figure 13 plots coverage against a 4-hour wall clock on a
20-core Xeon with real DCPMMs.  Here every execution is *charged* a cost
from :class:`CostModel` instead:

* a base execution cost plus per-command and per-fence work;
* image I/O — the term the paper's system-level optimizations attack.
  Without SysOpt every execution pays syscalls plus SSD-bandwidth
  transfers for loading and saving the image; with SysOpt the image
  moves at memory bandwidth through the fork server's copy-on-write
  heap (Section 4.7).

The ratios between the five comparison points — not the absolute
numbers — are what reproduce the relative curves of Figure 13.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import InvalidImageError, ReproError
from repro.fuzz.warmcache import WarmContext, WarmOpenCache
from repro.instrument.context import ExecutionContext, push_context
from repro.instrument.counter_map import PMCounterMap
from repro.instrument.covcore import make_branch_coverage
from repro.pmem.image import PMImage
from repro.workloads.base import Command, RunOutcome, RunResult, Workload
from repro.workloads.volatile_ops import VolatileCommandProcessor
from repro.workloads.mapcli import parse_commands


@dataclass
class CostModel:
    """Virtual-time charges per execution (seconds of modeled time)."""

    sys_opt: bool = True
    exec_base: float = 2e-3  #: process spin-up + harness overhead
    per_command: float = 2.5e-4  #: average command service time
    per_fence: float = 5e-6  #: persist-barrier latency
    syscall_overhead: float = 1e-3  #: mmap/open/close per image (no SysOpt)
    ssd_bandwidth: float = 80e6  #: bytes/s to the test-case drive
    pm_bandwidth: float = 2e9  #: bytes/s through the CoW heap (SysOpt)
    fault_overhead: float = 1e-3  #: detecting + reaping a dead harness
    retry_backoff_base: float = 4e-3  #: first-retry backoff delay
    retry_backoff_factor: float = 2.0  #: exponential backoff multiplier

    def image_io(self, nbytes: int) -> float:
        """Cost of moving one image in and out of the execution."""
        if self.sys_opt:
            return 2 * nbytes / self.pm_bandwidth
        return self.syscall_overhead + 2 * nbytes / self.ssd_bandwidth

    def execution(self, n_commands: int, n_fences: int, image_bytes: int) -> float:
        """Total charge for one execution of a test case."""
        return (self.exec_base
                + n_commands * self.per_command
                + n_fences * self.per_fence
                + self.image_io(image_bytes))

    def aborted_execution(self, image_bytes: int) -> float:
        """Charge for an execution that died at image validation."""
        return self.exec_base + self.image_io(image_bytes)

    def retry_backoff(self, attempt: int) -> float:
        """Backoff delay before retry ``attempt`` (1-based, exponential)."""
        return (self.retry_backoff_base
                * self.retry_backoff_factor ** (attempt - 1))


@dataclass
class ExecResult:
    """Everything one execution reports back to the fuzzing loop."""

    outcome: RunOutcome
    cost: float
    branch_sparse: List[Tuple[int, int]] = field(default_factory=list)
    pm_sparse: List[Tuple[int, int]] = field(default_factory=list)
    sites_hit: FrozenSet[str] = frozenset()
    final_image: Optional[PMImage] = None
    fence_count: int = 0
    store_count: int = 0
    commands_run: int = 0
    trace: list = field(default_factory=list)
    error: str = ""
    #: The captures of a snapshot plan (single-pass crash generation):
    #: lazy ``MediaSnapshot``s in-process, ``CrashSnapshot``s once the
    #: result was pickled (a fork-server reply).  Empty unless ``run``
    #: was given a plan.
    snapshots: list = field(default_factory=list)


class Executor:
    """Runs test cases for one (workload, configuration) campaign."""

    def __init__(
        self,
        workload_factory,
        cost_model: Optional[CostModel] = None,
        injector=None,
        collect_trace: bool = False,
        max_commands: int = 6,
        env_faults=None,
        warm_open: bool = True,
        keep_final_image: bool = True,
    ) -> None:
        # max_commands reproduces the paper's bounded per-test-case
        # execution (the 150 ms limit of Section 4.6): deep persistent
        # states are reached by *accumulating* PM images across the
        # test-case tree, not by ever-longer single inputs.
        self.workload_factory = workload_factory
        self.cost_model = cost_model or CostModel()
        self.injector = injector
        self.collect_trace = collect_trace
        self.max_commands = max_commands
        #: optional EnvFaultInjector consulted at the exec fault sites.
        self.env_faults = env_faults
        self._branch_cov = make_branch_coverage()
        # Pooled per-exec state: the 64 KiB PM counter map and the
        # volatile command processor are allocated once and reset in
        # place per execution instead of rebuilt on the hot path.
        self._counter_map = PMCounterMap()
        self._volatile_proc = VolatileCommandProcessor()
        #: Content-addressed post-open prefix cache.  Campaigns always
        #: run with it; ``warm_open=False`` (None here) opens every pool
        #: cold, the reference the equivalence tests compare against.
        #: Under fork isolation each worker inherits its own copy, so
        #: the cache is naturally per-process.
        self.warm_cache: Optional[WarmOpenCache] = \
            WarmOpenCache() if warm_open else None
        #: Attach the clean run's output image to ``ExecResult``?  Only
        #: indirect image fuzzing reads it; a campaign that does not
        #: turns it off, so a fork-server reply never pickles 256 KiB
        #: nobody reads.  The pool still closes either way.
        self.keep_final_image = keep_final_image

    # ------------------------------------------------------------------
    def _env_check(self) -> None:
        """Consult the exec-layer fault sites (fork server losing the
        child, target hanging) in their canonical order.

        The fork-server backend calls this in the *parent* before
        dispatching a job, so the injected-fault RNG stream is identical
        whether executions run in-process or in a worker subprocess.
        """
        if self.env_faults is not None:
            self.env_faults.check("exec-hang")
            self.env_faults.check("exec-fault")

    def run(
        self,
        image: PMImage,
        data: bytes,
        commands: Optional[Sequence[Command]] = None,
        snapshot_plan=None,
        image_key: Optional[str] = None,
        _env_checked: bool = False,
    ) -> ExecResult:
        """Execute command bytes (or pre-parsed commands) on an image.

        Environment faults: when an :class:`EnvFaultInjector` is armed,
        the ``exec-hang`` / ``exec-fault`` sites fire *before* the target
        runs (the fork server losing the child), raising
        :class:`~repro.errors.ExecTimeoutError` /
        :class:`~repro.errors.HarnessFaultError` for the supervisor to
        classify.  An unexpected non-:class:`~repro.errors.ReproError`
        exception escaping ``workload.run`` — a harness bug, not a
        program outcome — is contained as ``RunOutcome.HARNESS_FAULT``
        with the traceback in ``ExecResult.error`` instead of killing
        the whole campaign.
        """
        if not _env_checked:
            self._env_check()
        cmds = (list(commands) if commands is not None
                else parse_commands(data, max_commands=self.max_commands))
        workload: Workload = self.workload_factory()
        adopt = getattr(workload, "adopt_volatile", None)
        if adopt is not None:  # duck-typed test doubles may omit it
            adopt(self._volatile_proc)
        self._counter_map.reset()
        ctx = ExecutionContext(injector=self.injector,
                               collect_trace=self.collect_trace,
                               counter_map=self._counter_map)
        cov = self._branch_cov
        cov.reset()
        warm = None
        if self.warm_cache is not None:
            if (self.injector is None and not self.collect_trace
                    and not (snapshot_plan is not None and snapshot_plan)):
                warm = WarmContext(self.warm_cache, image, image_key, cov, ctx)
            else:
                # Injected faults, trace collection and snapshot plans
                # need the real prefix to execute every time.
                self.warm_cache.bypasses += 1
        cov.start()
        try:
            with push_context(ctx):
                result: RunResult = workload.run(
                    image, cmds, snapshot_plan=snapshot_plan, warm=warm)
        except ReproError:
            raise  # harness-level signal; the supervisor classifies it
        except Exception:
            # The workload driver catches every modeled program outcome;
            # anything reaching here is the harness's own failure.
            return ExecResult(
                outcome=RunOutcome.HARNESS_FAULT,
                cost=self.cost_model.execution(
                    n_commands=len(cmds), n_fences=0,
                    image_bytes=len(image)),
                error=traceback.format_exc(),
            )
        finally:
            cov.stop()
        cost = self.cost_model.execution(
            n_commands=len(cmds),
            n_fences=result.fence_count,
            image_bytes=len(image),
        )
        return ExecResult(
            outcome=result.outcome,
            cost=cost,
            branch_sparse=cov.sparse(),
            pm_sparse=ctx.counter_map.sparse(),
            sites_hit=frozenset(ctx.sites_hit),
            final_image=(result.final_image if self.keep_final_image
                         else None),
            fence_count=result.fence_count,
            store_count=result.store_count,
            commands_run=result.commands_run,
            trace=ctx.trace,
            error=result.error,
            snapshots=list(result.snapshots),
        )

    def run_raw_image(self, image_bytes: bytes, data: bytes) -> ExecResult:
        """AFL++ w/ ImgFuzz path: the *image bytes* are the mutated input.

        A directly mutated image almost always fails header validation and
        the execution aborts before reaching any useful path (Figure 5a).

        This path gets the same containment as :meth:`run`: the
        ``exec-hang`` / ``exec-fault`` sites are consulted before the
        image bytes are touched (the fork server can die before ever
        validating its input), and a deserializer crash on hostile bytes
        — anything other than the modeled :class:`InvalidImageError` —
        is contained as ``RunOutcome.HARNESS_FAULT`` instead of escaping
        into the campaign loop.
        """
        self._env_check()
        try:
            image = PMImage.from_bytes(image_bytes)
        except InvalidImageError as exc:
            return ExecResult(
                outcome=RunOutcome.INVALID_IMAGE,
                cost=self.cost_model.aborted_execution(len(image_bytes)),
                error=str(exc),
            )
        except ReproError:
            raise  # harness-level signal; the supervisor classifies it
        except Exception:
            return ExecResult(
                outcome=RunOutcome.HARNESS_FAULT,
                cost=self.cost_model.aborted_execution(len(image_bytes)),
                error=traceback.format_exc(),
            )
        return self.run(image, data, _env_checked=True)
