"""The greybox fuzzing loop: AFL++ plus the PMFuzz features (Figure 11).

:class:`FuzzEngine` is the complete campaign driver: queue selection,
deterministic + havoc + splice mutation, execution, branch coverage
feedback, favored culling, virtual-time accounting and coverage
sampling.  It *measures* PM-path coverage (the Figure 13 metric) in
every configuration.

The Table-2 configuration (:class:`~repro.core.config.FuzzConfig`) is
the only switch between the five comparison points:

* ``input_fuzz`` — deterministic mutation of the command bytes;
* ``img_fuzz`` — ``DIRECT`` fuzzes the raw image bytes (AFL++ w/
  ImgFuzz); ``INDIRECT`` feeds program-generated images back into the
  queue: the output image of every saved test case (Section 3.1), crash
  images at the ordering points of every PM-novel one (Section 3.2),
  and the output of a quarter of the other runs;
* ``pm_path_opt`` — the Algorithm-2 Favored value from the PM counter
  map, so test cases that explore new PM paths drive future mutation;
* ``sys_opt`` — the cost model and compressed image storage (Section
  4.7).

All generated images are SHA-256-deduplicated and recorded in the
Figure-12 test-case tree.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, List, Optional, Sequence

import os
import weakref

from repro.core.config import FuzzConfig, ImgFuzzMode, RunConfig
from repro.core.dedup import ImageStore
from repro.core.priority import pm_path_priority
from repro.core.storage import TestCaseStorage
from repro.core.testcase import TestCaseTree
from repro.errors import FuzzerError, HarnessFaultError, StorageFaultError
from repro.fuzz.coverage import MAP_SIZE, GlobalCoverage
from repro.fuzz.executor import CostModel, ExecResult, Executor
from repro.fuzz.mutators import MutationEngine
from repro.fuzz.queue import FuzzQueue, QueueEntry
from repro.fuzz.rng import DeterministicRandom
from repro.fuzz.stats import CoverageSample, FuzzStats
from repro.isolation.backend import create_backend
from repro.observe.bus import TraceBus
from repro.observe.metrics import MetricsRegistry
from repro.observe.monitor import STATUS_NAME, StatusWriter
from repro.observe.profiler import StageProfiler
from repro.observe.sink import SHARD_NAME, JsonlTraceSink
from repro.workloads.base import RunOutcome, Workload

#: Basic seed inputs: "a list of basic commands" (Section 5.1).
#: Insert-heavy, as mapcli seed scripts are — the net insert rate of the
#: corpus determines how fast indirect image fuzzing grows the
#: persistent state.
DEFAULT_SEED_INPUTS: Sequence[bytes] = (
    b"i 1 10\ni 2 20\ni 3 30\ni 4 40\ng 1\nr 2\n",
    b"i 7 70\ni 13 31\ni 42 5\nr 13\nq\nn\n",
)

#: Hard cap so a mis-tuned budget can never spin forever.
MAX_EXECUTIONS = 200_000

#: Virtual seconds between coverage samples (the Figure-13 curve).
SAMPLE_INTERVAL = 0.25

#: Havoc/splice children per fuzzing round.
HAVOC_BATCH = 12


def _weak_getter(ref: "weakref.ref", attr: str,
                 default) -> Callable[[], object]:
    """``lambda: engine.<attr>`` through a weak reference to the engine
    (``default`` once the engine is gone)."""
    def get():
        engine = ref()
        return default if engine is None else getattr(engine, attr)
    return get


class FuzzEngine:
    """One fuzzing campaign: a workload under one Table-2 configuration.

    ``run_config`` says how the campaign runs: where test cases
    execute, when it checkpoints, and what it traces.
    """

    def __init__(
        self,
        workload_factory,
        config: FuzzConfig,
        run_config: RunConfig = RunConfig(),
        rng: Optional[DeterministicRandom] = None,
        seed_inputs: Sequence[bytes] = DEFAULT_SEED_INPUTS,
        injector=None,
        env_faults=None,
    ) -> None:
        self.workload_factory = workload_factory
        self.config = config
        self.run_config = run_config
        self.rng = rng or DeterministicRandom()
        self.seed_inputs = [bytes(s) for s in seed_inputs]
        if not self.seed_inputs:
            raise FuzzerError("at least one seed input is required")

        self.cost_model = CostModel(sys_opt=config.sys_opt)
        self.env_faults = env_faults
        # Only indirect image fuzzing reads an execution's final image;
        # every other configuration leaves it out of the result.
        self.executor = Executor(
            workload_factory, self.cost_model, injector=injector,
            env_faults=env_faults,
            keep_final_image=config.img_fuzz is ImgFuzzMode.INDIRECT)
        self.mutator = MutationEngine(self.rng)
        self.queue = FuzzQueue()
        self.branch_cov = GlobalCoverage()
        self.pm_cov = GlobalCoverage()  # measured in every config
        self.storage = TestCaseStorage(ImageStore(compress=config.sys_opt,
                                                  env_faults=env_faults))
        self.stats = FuzzStats(config_name=config.name)
        #: Observability layer: always-on metrics registry + per-stage
        #: profiler, and a trace bus that is inert unless a trace
        #: directory is configured.  Nothing here feeds back into
        #: campaign decisions (determinism-neutral by contract).
        self.metrics = MetricsRegistry()
        self.profiler = StageProfiler(self.metrics,
                                      wall_enabled=run_config.profile)
        self._m_exec_cost = self.metrics.histogram("exec_cost_vs")
        self._m_queue_depth = self.metrics.gauge("queue_depth")
        self._m_pm_density = self.metrics.gauge("coverage/pm_density")
        self._m_branch_density = self.metrics.gauge(
            "coverage/branch_density")
        self._m_mutops: dict = {}
        # Pre-register every metric the campaign can touch: checkpoint
        # restore ignores unknown keys, so a lazily-registered counter
        # that had not re-fired since resume would silently lose its
        # checkpointed value.  Static registration also keeps the
        # snapshot key set identical across trace on/off and backends.
        # The "sync" and "corpusdb" stages and the three "corpusdb/"
        # counters belonged to the retired fleet and corpus database and
        # always read zero; they stay registered because the pinned
        # comparable() digests cover the snapshot key set, and retire
        # with the next re-pin (ROADMAP item 1).
        for stage in ("mutate", "execute", "crashgen", "sync", "checkpoint",
                      "corpusdb"):
            self.profiler.add_vtime(stage, 0.0)
            self.profiler.count_call(stage, 0)
        for name in ("corpusdb/published", "corpusdb/imported",
                     "corpusdb/degraded"):
            self.metrics.counter(name)
        for op in self.mutator.op_names():
            for what in ("execs", "saves"):
                self._mutop(op, what)
        if run_config.trace_dir:
            self.trace = TraceBus(
                sink_factory=lambda: JsonlTraceSink(
                    os.path.join(run_config.trace_dir, SHARD_NAME),
                    rotate_bytes=run_config.trace_rotate_bytes),
                sample=run_config.trace_sample)
        else:
            self.trace = TraceBus()  # disabled, but still checkpointable
        self._status: Optional[StatusWriter] = None
        #: Per-child mutation-operator labels (set by _children_of,
        #: consumed by _run_one's effectiveness counters).
        self._current_ops: tuple = ()
        self._child_ops: List[tuple] = []
        #: Execution backend: in-process, or the fork-server worker pool
        #: (real wall-clock watchdogs + RSS ceilings + crash triage).
        #: Falls back to in-process where fork is unavailable, recording
        #: why, so a checkpointed fork campaign still resumes anywhere.
        # The supervisor and the backend call back into the engine
        # through a weak reference: a closure over ``self`` would close
        # a cycle (engine -> backend -> closure -> engine) that keeps a
        # finished campaign, with its warm cache and image store, alive
        # until the cyclic collector runs.
        this = weakref.ref(self)
        self.backend, self._isolation_fallback = create_backend(
            self.executor, run_config, stats=self.stats,
            campaign_info=_weak_getter(this, "campaign_meta", None))
        self.stats.isolation_backend = self.backend.name
        self.stats.isolation_fallback = self._isolation_fallback
        #: Resilience layer: retries transient harness faults, enforces
        #: the per-test-case time budget, quarantines harness killers.
        # Imported here, not at module level: repro.resilience's package
        # init pulls repro.fuzz back in, and whichever package is
        # imported first must be able to finish initializing.
        from repro.resilience.supervisor import SupervisedExecutor
        self.supervisor = SupervisedExecutor(
            self.executor, stats=self.stats,
            max_retries=run_config.max_retries,
            exec_vtime_budget=run_config.exec_vtime_budget,
            backend=self.backend)
        # Fault and worker-kill events flow onto this campaign's bus at
        # the engine's current virtual time.
        vclock_fn = _weak_getter(this, "vclock", 0.0)
        self.supervisor.trace = self.trace
        self.supervisor.vclock_fn = vclock_fn
        self.backend.trace = self.trace
        self.backend.vclock_fn = vclock_fn
        self.vclock = 0.0
        self.tree: Optional[TestCaseTree] = None
        self._seed_image_id = ""
        self._seed_image_bytes = b""
        self._next_sample = 0.0
        self._set_up = False
        #: Graceful-stop flag (first SIGINT/SIGTERM sets it; the loop
        #: finishes the in-flight execution and stops cleanly).
        self._stop_requested = False
        self._next_checkpoint = run_config.checkpoint_every or 0.0
        #: The rest of a round a stop cut short, carried by the final
        #: checkpoint and run first when a resumed campaign continues.
        self._pending_round: Optional[tuple] = None
        #: Campaign provenance (workload name, config, options) recorded
        #: by build_engine so checkpoints are self-describing; engines
        #: constructed by hand can still checkpoint by filling this in.
        self.campaign_meta: dict = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Create the seed image and execute every seed input once."""
        if self._set_up:
            return
        workload: Workload = self.workload_factory()
        self.stats.workload_name = workload.name
        seed_image = workload.create_image()
        # The campaign cannot exist without its seed image, so a
        # permanent storage fault here is allowed to propagate.
        (self._seed_image_id, _), fault_cost = \
            self.supervisor.save_image(self.storage, seed_image)
        self.vclock += fault_cost
        self._seed_image_bytes = seed_image.to_bytes()
        self.tree = TestCaseTree(self._seed_image_id)
        if self.config.img_fuzz is ImgFuzzMode.DIRECT:
            # The image bytes themselves are the fuzzed input.
            entry = self.queue.add(self._seed_image_bytes,
                                   image_id=self._seed_image_id,
                                   branch_favored=True)
            self._run_one(entry, self._seed_image_bytes)
        else:
            for data in self.seed_inputs:
                entry = self.queue.add(data, image_id=self._seed_image_id,
                                       branch_favored=True)
                self._run_one(entry, data)
        self._set_up = True

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, budget_vseconds: float) -> FuzzStats:
        """Fuzz until the virtual-time budget is exhausted.

        With ``run_config.checkpoint_every`` set, the complete campaign
        state is snapshotted to ``run_config.checkpoint_path`` at
        fuzzing-round boundaries;
        a campaign killed at *any* point resumes from its last
        checkpoint (:func:`~repro.resilience.checkpoint.resume_campaign`)
        and — because every random decision flows through the
        snapshotted RNG — replays the interrupted tail bit-for-bit,
        ending in the same final state as an uninterrupted run.

        With a checkpoint path configured, every stop (budget, signal
        or execution cap) checkpoints one final time, at the moment the
        loop stops and before the cut round's end-of-round work; the
        rest of that round travels in the checkpoint.  Resuming it with
        a larger budget therefore continues exactly where an
        uninterrupted, longer campaign would be, and a Ctrl-C'd or
        budget-stopped campaign never loses its tail.
        """
        try:
            self.setup()
            pending, self._pending_round = self._pending_round, None
            cut = False
            while pending is not None or self._may_fuzz(budget_vseconds):
                if pending is None:
                    self._maybe_checkpoint()
                    entry = self.queue.select(self.rng)
                    entry.fuzz_rounds += 1
                    children = self._children_of(entry)
                    ops = self._child_ops
                else:
                    entry, children, ops = pending
                    pending = None
                self._plan_children(entry, children)
                for index, data in enumerate(children):
                    if not self._may_fuzz(budget_vseconds):
                        self._final_checkpoint(
                            (entry, children[index:], ops[index:]))
                        cut = True
                        break
                    self._current_ops = (
                        ops[index] if index < len(ops) else ())
                    self._run_one(entry, data)
                self._current_ops = ()
                # Speculative batch results the round did not consume
                # (budget truncation, load faults) are dropped unmerged.
                self.backend.discard_plan()
                if self.stats.executions % 64 == 0:
                    self.queue.cull()
            if not cut:
                self._final_checkpoint(None)
        finally:
            # Reap fork-server workers even on an abrupt exit; the pool
            # respawns lazily if the engine runs again (resume).
            self.backend.close()
        if self._stop_requested:
            self.stats.stop_reason = "signal"
        elif self.stats.executions >= MAX_EXECUTIONS:
            self.stats.stop_reason = "exec-cap"
        else:
            self.stats.stop_reason = "budget"
        self.stats.pm_covered_slots = set(self.pm_cov.covered_slots())
        self.stats.branch_covered_slots = set(self.branch_cov.covered_slots())
        self._sample(force=True)
        # Final metrics snapshot lands in the stats object even without
        # a trace directory — comparable() always carries the metrics.
        self._snapshot_metrics()
        self.trace.close()
        return self.stats

    def _may_fuzz(self, budget_vseconds: float) -> bool:
        """Whether the loop may run another execution."""
        return (self.vclock < budget_vseconds
                and self.stats.executions < MAX_EXECUTIONS
                and not self._stop_requested)

    def _final_checkpoint(self, pending_round: Optional[tuple]) -> None:
        """The stop-time checkpoint, when a checkpoint path is set.

        ``pending_round`` is ``(entry, children, ops)`` for the
        executions the cut round has left, or None at a round boundary.
        """
        if not self.run_config.checkpoint_path:
            return
        self._pending_round = pending_round
        try:
            self.checkpoint()
        finally:
            self._pending_round = None

    def request_stop(self) -> None:
        """Ask the loop to stop cleanly after the in-flight execution.

        Safe to call from a signal handler: it only sets a flag; the
        fuzzing loop observes it before the next execution and
        :meth:`run` records ``stop_reason="signal"`` plus a final
        checkpoint.
        """
        self._stop_requested = True

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    def close(self) -> None:
        """Release backend resources (idempotent; run() also does this)."""
        self.backend.close()

    # ------------------------------------------------------------------
    # Checkpoint / resume (crash-safe campaign state)
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        every = self.run_config.checkpoint_every
        if every is None or self.vclock < self._next_checkpoint:
            return
        # Advance the schedule *before* capturing so a resumed campaign
        # inherits the already-advanced value and the trajectory of
        # checkpoints (which never mutates campaign state) lines up.
        self._next_checkpoint = self.vclock + every
        self.checkpoint()

    def checkpoint(self, path: Optional[str] = None) -> str:
        """Atomically snapshot the complete campaign state to disk."""
        from repro.resilience.checkpoint import write_engine_checkpoint

        target = path or self.run_config.checkpoint_path
        if not target:
            raise FuzzerError("no checkpoint path configured")
        with self.profiler.stage("checkpoint"):
            # A full disk at checkpoint time costs this one snapshot,
            # never the campaign: the previous checkpoint (and its
            # .prev rotation) still exists, so resume stays possible.
            # Drawn from the host fault stream *before* the event is
            # emitted, so a skipped snapshot leaves no trace-seq gap.
            if self.env_faults is not None:
                try:
                    self.env_faults.check_host("disk-full")
                except StorageFaultError as exc:
                    self.stats.disk_full_faults += 1
                    self.trace.emit("fault_injected", self.vclock,
                                    fault="disk-full",
                                    detail=f"checkpoint skipped: {exc}")
                    return ""
            # Emit *before* capturing so the snapshotted bus sequence
            # already covers this event: a resumed campaign continues at
            # the same seq as an uninterrupted run (merge dedup relies
            # on replayed tails carrying identical seq numbers).
            self.trace.emit("checkpoint", self.vclock,
                            path=os.path.basename(target))
            write_engine_checkpoint(target, self)
            self.trace.flush()
        return target

    def _children_of(self, entry: QueueEntry) -> List[bytes]:
        """Mutated inputs for one fuzzing round of ``entry``."""
        children: List[bytes] = []
        ops: List[tuple] = []
        with self.profiler.stage("mutate"):
            if entry.fuzz_rounds == 1 and self.config.input_fuzz:
                det = self.mutator.deterministic(entry.data, limit=8)
                children.extend(det)
                ops.extend([("deterministic",)] * len(det))
            for _ in range(HAVOC_BATCH):
                if len(self.queue) > 1 and self.rng.chance(0.2):
                    other = self.queue.select(self.rng)
                    children.append(
                        self.mutator.splice(entry.data, other.data))
                else:
                    children.append(self.mutator.havoc(entry.data))
                ops.append(self.mutator.last_ops)
        self._child_ops = ops
        return children

    def _plan_children(self, entry: QueueEntry, children: List[bytes]) -> None:
        """Announce the round's jobs so a batching backend can pipeline.

        The plan mirrors exactly the job tuples :meth:`_run_one` will
        dispatch, in order; a backend without batching ignores it.  A
        ``run`` job carries the input :class:`~repro.pmem.image.PMImage`
        itself: the staged image when the PM staging tier holds it
        (the very object the supervised load will return), else one
        decoded by the fault-free store read
        (:meth:`~repro.core.dedup.ImageStore.peek`) — never
        the supervised load, because planning must not perturb the
        deterministic fault stream.  An image that cannot be resolved
        simply goes unplanned (its execution falls back to a single
        dispatch).
        """
        if self.backend.batch_execs <= 1 or not children:
            return
        if self.config.img_fuzz is ImgFuzzMode.DIRECT:
            seed = bytes(self.seed_inputs[0])
            self.backend.plan([("raw", bytes(data), seed, {})
                               for data in children])
            return
        image_id = entry.image_id or self._seed_image_id
        image = self.storage.staged(image_id)
        if image is None:
            image = self.storage.store.peek(image_id)
            if image is None:
                return
        self.backend.plan([("run", image, bytes(data),
                            {"image_key": image_id})
                           for data in children])

    # ------------------------------------------------------------------
    # One execution + feedback
    # ------------------------------------------------------------------
    def _run_one(self, parent: QueueEntry, data: bytes) -> None:
        with self.profiler.stage("execute"):
            if self.config.img_fuzz is ImgFuzzMode.DIRECT:
                result = self.supervisor.run_raw_image(
                    data, self.seed_inputs[0])
            else:
                image_id = parent.image_id or self._seed_image_id
                try:
                    image, fault_cost = self.supervisor.load_image(
                        self.storage, image_id)
                except HarnessFaultError as exc:
                    # The input image is unreadable right now; charge the
                    # recovery time, record a degraded execution, move on.
                    self.vclock += exc.vcost
                    self.profiler.add_vtime("execute", exc.vcost)
                    self.stats.executions += 1
                    self.trace.emit("exec", self.vclock,
                                    outcome="HARNESS_FAULT", cost=exc.vcost)
                    self._sample()
                    return
                self.vclock += fault_cost
                self.profiler.add_vtime("execute", fault_cost)
                # image_id doubles as the warm-open cache key: it is
                # content-derived by the store, so equal id == equal
                # image, and the executor skips re-hashing the payload.
                result = self.supervisor.run(image, data,
                                             image_id=image_id,
                                             image_key=image_id)
        self.vclock += result.cost
        self.profiler.add_vtime("execute", result.cost)
        self._m_exec_cost.observe(result.cost)
        self.stats.executions += 1
        self.trace.emit("exec", self.vclock,
                        outcome=result.outcome.name, cost=result.cost)
        if result.outcome is RunOutcome.INVALID_IMAGE:
            self.stats.invalid_image_runs += 1
        elif result.outcome is RunOutcome.SEGFAULT:
            self.stats.segfault_runs += 1
            self.trace.emit("crash", self.vclock,
                            outcome=result.outcome.name,
                            sites=len(result.sites_hit))
        # Record witness test cases per PM-operation site: the evaluation
        # replays exactly the test cases that cover a synthetic-bug site
        # (Table 3's detection step).  Up to three witnesses with distinct
        # input images are kept — the same site can be reached on paths
        # where an injected bug is benign (e.g. a skipped snapshot of a
        # freshly allocated object), so one witness is not always enough.
        image_id = parent.image_id or self._seed_image_id
        witness = (image_id, data, self.vclock)
        for site in result.sites_hit:
            recorded = self.stats.site_witness.get(site)
            if recorded is None:
                self.stats.site_witness[site] = [witness]
            elif all(w[0] != image_id for w in recorded[:2]):
                if len(recorded) < 3:
                    recorded.append(witness)
                else:
                    recorded[2] = witness  # rotating latest-witness slot
        self.stats.sites_hit.update(result.sites_hit)

        # Branch coverage feedback (the AFL++ logic, always active).
        new_edge, new_bucket = self.branch_cov.update(result.branch_sparse)
        # PM-path prioritization (Algorithm 2): unseen slot -> 2,
        # different counter bucket -> 1, else 0.  Classified before the
        # update below folds this execution into the global PM map.
        priority = (pm_path_priority(self.pm_cov, result.pm_sparse)
                    if self.config.pm_path_opt else 0)
        pm_new_path, pm_new_bucket = self.pm_cov.update(result.pm_sparse)

        saved = None
        if new_edge or new_bucket or priority > 0:
            saved = self.queue.add(
                data,
                image_id=parent.image_id,
                favored=priority,
                branch_favored=new_edge,
                parent=parent.entry_id,
                created_at=self.vclock,
            )
        # Mutation-operator effectiveness: which operators produced the
        # children we ran, and which of those children earned a queue
        # slot.  Deterministic (a function of the seeded campaign only).
        for op in self._current_ops:
            self._mutop(op, "execs").inc()
            if saved is not None:
                self._mutop(op, "saves").inc()
        if saved is not None or pm_new_path or pm_new_bucket:
            self.trace.emit("new_path", self.vclock,
                            pm_paths=self.pm_cov.slots_covered,
                            branch_edges=self.branch_cov.slots_covered,
                            queue_size=len(self.queue),
                            pm_novel=bool(pm_new_path or pm_new_bucket))
            # Every *saved* test case contributes its output image back
            # into the corpus (this is where the paper's 1.5 TB of test
            # cases comes from); the expensive crash-image re-executions
            # are reserved for the PM-novel ones.
            if self.config.img_fuzz is ImgFuzzMode.INDIRECT:
                self._generate_images(parent, data, result,
                                      pm_novel=pm_new_path or pm_new_bucket)
        elif self.config.img_fuzz is ImgFuzzMode.INDIRECT:
            self._chain_image(parent, data, result)
        self._sample()

    # ------------------------------------------------------------------
    # Indirect image fuzzing (Sections 3.1 and 3.2)
    # ------------------------------------------------------------------
    @cached_property
    def crashgen(self):
        """The campaign's :class:`~repro.core.crashgen.CrashImageGenerator`.

        Crash generation runs through the supervisor too, so an
        environment fault during it is retried or absorbed instead of
        killing the campaign.
        """
        # Imported here, not at module level: repro.core.crashgen
        # imports repro.fuzz.executor, which would close an import
        # cycle through the repro.fuzz package init.
        from repro.core.crashgen import CrashImageGenerator
        return CrashImageGenerator(self.supervisor, self.rng)

    def _generate_images(self, parent: QueueEntry, data: bytes,
                         result: ExecResult, pm_novel: bool) -> None:
        """Steps ➌-➎ of Figure 11: generate and enqueue PM images."""
        assert self.tree is not None
        parent_image_id = parent.image_id or self._seed_image_id
        # (1) The normal image: the run's output state, valid by
        # construction because the program logic produced it.  A
        # permanent storage fault forfeits this one contribution only.
        if result.outcome.value == "ok" and result.final_image is not None:
            saved = self._save_image(result.final_image)
            if saved is not None and saved[1]:
                image_id = saved[0]
                self.stats.normal_images_generated += 1
                self.tree.add(image_id, parent_image_id, data, None)
                # Pair the new image with the input that produced it:
                # mutating that input on top of its own output compounds
                # the state (more distinct keys each generation), which
                # is how deep thresholds like the hashmap rebuild are
                # eventually crossed.
                self.queue.add(
                    data,
                    image_id=image_id,
                    favored=2 if pm_novel else 1,
                    parent=parent.entry_id,
                    created_at=self.vclock,
                )
            elif saved is not None:
                self.stats.images_deduplicated += 1
        if not pm_novel:
            return
        # (2) Crash images: interrupt the same execution at its ordering
        # points; every (modeled) re-execution, and any recovery the
        # supervisor spent on the single pass, is charged to the virtual
        # clock and attributed to the "crashgen" profiling stage.
        # Reserved for PM-novel test cases (the expensive step).
        with self.profiler.stage("crashgen"):
            try:
                parent_image, fault_cost = self.supervisor.load_image(
                    self.storage, parent_image_id)
            except HarnessFaultError as exc:
                self.vclock += exc.vcost  # crash gen skipped this round
                self.profiler.add_vtime("crashgen", exc.vcost)
                return
            self.vclock += fault_cost
            self.profiler.add_vtime("crashgen", fault_cost)
            crash_images = self.crashgen.generate(
                parent_image, data, result.fence_count, result.store_count)
            self.vclock += crash_images.overhead
            self.profiler.add_vtime("crashgen", crash_images.overhead)
            for crash in crash_images:
                self.vclock += crash.cost
                self.profiler.add_vtime("crashgen", crash.cost)
                saved = self._save_image(crash.image)
                if saved is None:
                    continue
                image_id, is_new = saved
                if not is_new:
                    self.stats.images_deduplicated += 1
                    continue
                self.stats.crash_images_generated += 1
                self.tree.add(image_id, parent_image_id, data,
                              crash.fence_index)
                self.queue.add(
                    self.seed_inputs[0],
                    image_id=image_id,
                    favored=2,
                    parent=parent.entry_id,
                    from_crash_image=True,
                    created_at=self.vclock,
                )

    def _chain_image(self, parent: QueueEntry, data: bytes,
                     result: ExecResult) -> None:
        """Probabilistic image chaining for non-saved executions.

        The real fuzzer reuses output images across iterations regardless
        of coverage novelty (the mutation of the persistent state *is*
        the point of indirect image fuzzing); a quarter of the non-saved
        runs contribute their output image here, which is what lets the
        accumulated state cross deep thresholds (the hashmap rebuild,
        slab exhaustion, multi-level tree splits) after path-coverage
        novelty has dried up.
        """
        if result.outcome.value != "ok" or result.final_image is None:
            return
        if not self.rng.chance(0.25):
            return
        assert self.tree is not None
        parent_image_id = parent.image_id or self._seed_image_id
        saved = self._save_image(result.final_image)
        if saved is None:
            return
        image_id, is_new = saved
        if not is_new:
            self.stats.images_deduplicated += 1
            return
        self.stats.normal_images_generated += 1
        self.tree.add(image_id, parent_image_id, data, None)
        self.queue.add(data, image_id=image_id, favored=1,
                       parent=parent.entry_id, created_at=self.vclock)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _sample(self, force: bool = False) -> None:
        if not force and self.vclock < self._next_sample:
            return
        self._next_sample = self.vclock + SAMPLE_INTERVAL
        # Gauges track the sampled state regardless of tracing, so the
        # deterministic metrics snapshot is identical trace on/off.
        self._m_queue_depth.set(len(self.queue))
        self._m_pm_density.set(self.pm_cov.slots_covered / MAP_SIZE)
        self._m_branch_density.set(self.branch_cov.slots_covered / MAP_SIZE)
        self.stats.record(CoverageSample(
            vtime=self.vclock,
            executions=self.stats.executions,
            pm_paths=self.pm_cov.slots_covered,
            branch_edges=self.branch_cov.slots_covered,
            queue_size=len(self.queue),
            images=len(self.storage.store),
            harness_faults=self.stats.harness_faults,
        ))
        status = self._status_writer()
        if status is not None:
            self._snapshot_metrics()
            status.maybe_write(self.stats, self.vclock, force=force)

    def _snapshot_metrics(self) -> None:
        """Publish the registry into the stats object (both classes)."""
        self.stats.metrics = self.metrics.snapshot()
        self.stats.metrics_host = self.metrics.snapshot(host_dependent=True)

    def _mutop(self, op: str, what: str):
        """Lazily-registered mutation-operator effectiveness counter."""
        key = (op, what)
        counter = self._m_mutops.get(key)
        if counter is None:
            counter = self.metrics.counter(f"mutops/{op}/{what}")
            self._m_mutops[key] = counter
        return counter

    def _status_writer(self) -> Optional[StatusWriter]:
        """Lazy status writer (None without a trace directory)."""
        trace_dir = self.run_config.trace_dir
        if trace_dir is None:
            return None
        if self._status is None:
            self._status = StatusWriter(
                os.path.join(trace_dir, STATUS_NAME),
                every_vtime=self.run_config.status_every)
        return self._status

    # ------------------------------------------------------------------
    # Supervised storage helpers
    # ------------------------------------------------------------------
    def _save_image(self, image) -> Optional[tuple]:
        """Supervised image save; ``(image_id, is_new)`` or None.

        A permanent storage fault costs the campaign this one image
        contribution (the recovery time is charged), never the campaign.
        """
        try:
            saved, fault_cost = self.supervisor.save_image(
                self.storage, image)
        except HarnessFaultError as exc:
            self.vclock += exc.vcost
            return None
        self.vclock += fault_cost
        return saved
