"""The greybox fuzzing loop (AFL++ analogue) with PMFuzz hook points.

:class:`FuzzEngine` is the complete AFL++-style campaign driver: queue
selection, deterministic + havoc + splice mutation, execution, branch
coverage feedback, favored culling, virtual-time accounting and coverage
sampling.  It *measures* PM-path coverage (the Figure 13 metric) in
every configuration but, like AFL++, does not act on it.

Two hook points let :class:`repro.core.pmfuzz.PMFuzzEngine` layer the
paper's contribution on top:

* :meth:`priority_for` — the Algorithm-2 Favored value (base: always 0);
* :meth:`on_new_pm_path` — PM image + crash image generation for test
  cases that covered a new PM path (base: no-op).

The Table-2 configuration object decides input fuzzing vs direct image
fuzzing and the cost model (SysOpt).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import os

from repro.core.config import FuzzConfig, ImgFuzzMode
from repro.core.dedup import ImageStore
from repro.core.storage import TestCaseStorage
from repro.core.testcase import TestCaseTree
from repro.errors import FuzzerError, HarnessFaultError, StorageFaultError
from repro.instrument.covcore import set_backend as set_cov_backend
from repro.fuzz.coverage import MAP_SIZE, GlobalCoverage
from repro.fuzz.executor import CostModel, ExecResult, Executor
from repro.fuzz.mutators import MutationEngine
from repro.fuzz.queue import FuzzQueue, QueueEntry
from repro.fuzz.rng import DeterministicRandom
from repro.fuzz.stats import CoverageSample, FuzzStats
from repro.isolation.backend import create_backend
from repro.observe.bus import TraceBus
from repro.observe.metrics import MetricsRegistry
from repro.observe.monitor import StatusWriter, status_name
from repro.observe.profiler import StageProfiler
from repro.observe.sink import JsonlTraceSink, shard_name
from repro.pmem.image import PMImage
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


class FuzzEngine:
    """One fuzzing campaign: a workload under one Table-2 configuration."""

    def __init__(
        self,
        workload_factory,
        config: FuzzConfig,
        rng: Optional[DeterministicRandom] = None,
        seed_inputs: Sequence[bytes] = DEFAULT_SEED_INPUTS,
        sample_interval: float = 0.25,
        havoc_batch: int = 12,
        injector=None,
        env_faults=None,
        exec_vtime_budget: float = 0.25,
        max_retries: int = 3,
        checkpoint_every: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
        isolation: str = "none",
        isolation_workers: int = 1,
        batch_execs: int = 8,
        exec_wall_timeout: float = 10.0,
        worker_rss_limit: Optional[int] = None,
        worker_max_execs: int = 256,
        triage_dir: Optional[str] = None,
        trace_dir: Optional[str] = None,
        trace_sample: int = 1,
        trace_rotate_bytes: Optional[int] = None,
        profile: bool = False,
        status_every: float = 0.5,
        cov_backend: Optional[str] = None,
        warm_open: bool = True,
    ) -> None:
        #: Coverage backend ("settrace" or "monitoring"): selected
        #: process-wide before the executor is built.  Both produce
        #: identical edge maps (the fast-path grid is the proof), so the
        #: choice is campaign metadata, never part of comparable().
        self.cov_backend = set_cov_backend(cov_backend)
        self.workload_factory = workload_factory
        self.config = config
        self.rng = rng or DeterministicRandom()
        self.seed_inputs = [bytes(s) for s in seed_inputs]
        if not self.seed_inputs:
            raise FuzzerError("at least one seed input is required")
        self.sample_interval = sample_interval
        self.havoc_batch = havoc_batch

        self.cost_model = CostModel(sys_opt=config.sys_opt)
        self.env_faults = env_faults
        # Only indirect image fuzzing (PMFuzzEngine's on_new_pm_path /
        # on_result) reads an execution's final image; every other
        # configuration leaves it out of the result.
        self.executor = Executor(
            workload_factory, self.cost_model, injector=injector,
            env_faults=env_faults, warm_open=warm_open,
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
        self.trace_dir = trace_dir
        self.profile = profile
        self.status_every = status_every
        self.metrics = MetricsRegistry()
        self.profiler = StageProfiler(self.metrics, wall_enabled=profile)
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
        if trace_dir:
            self.trace = TraceBus(
                sink_factory=lambda: JsonlTraceSink(
                    os.path.join(trace_dir, shard_name(-1)),
                    rotate_bytes=trace_rotate_bytes),
                sample=trace_sample)
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
        self.backend, self._isolation_fallback = create_backend(
            isolation, self.executor,
            workers=isolation_workers,
            wall_timeout=exec_wall_timeout,
            rss_limit_bytes=worker_rss_limit,
            max_execs_per_worker=worker_max_execs,
            triage_dir=triage_dir,
            stats=self.stats,
            campaign_info=lambda: self.campaign_meta,
            batch_execs=batch_execs)
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
            max_retries=max_retries,
            exec_vtime_budget=exec_vtime_budget,
            backend=self.backend)
        # Fault and worker-kill events flow onto this campaign's bus at
        # the engine's current virtual time.
        self.supervisor.trace = self.trace
        self.supervisor.vclock_fn = lambda: self.vclock
        self.backend.trace = self.trace
        self.backend.vclock_fn = lambda: self.vclock
        self.vclock = 0.0
        self.tree: Optional[TestCaseTree] = None
        self._seed_image_id = ""
        self._seed_image_bytes = b""
        self._next_sample = 0.0
        self._set_up = False
        #: Graceful-stop flag (first SIGINT/SIGTERM sets it; the loop
        #: finishes the in-flight execution and stops cleanly).
        self._stop_requested = False
        if checkpoint_every is not None and not checkpoint_path:
            raise FuzzerError("checkpoint_every requires checkpoint_path")
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self._next_checkpoint = checkpoint_every or 0.0
        #: Campaign provenance (workload name, config, kwargs) recorded
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

        With ``checkpoint_every`` set, the complete campaign state is
        snapshotted to ``checkpoint_path`` at fuzzing-round boundaries;
        a campaign killed at *any* point resumes from its last
        checkpoint (:meth:`resume`) and — because every random decision
        flows through the snapshotted RNG — replays the interrupted
        tail bit-for-bit, ending in the same final state as an
        uninterrupted run.

        On a signal-requested stop the complete campaign state is
        checkpointed one final time (when a checkpoint path is
        configured), so a Ctrl-C'd campaign can resume without losing
        its tail.
        """
        try:
            self.setup()
            while (self.vclock < budget_vseconds
                   and self.stats.executions < MAX_EXECUTIONS
                   and not self._stop_requested):
                self._maybe_checkpoint()
                entry = self.queue.select(self.rng)
                entry.fuzz_rounds += 1
                children = self._children_of(entry)
                self._plan_children(entry, children)
                for index, data in enumerate(children):
                    if (self.vclock >= budget_vseconds
                            or self.stats.executions >= MAX_EXECUTIONS
                            or self._stop_requested):
                        break
                    self._current_ops = (
                        self._child_ops[index]
                        if index < len(self._child_ops) else ())
                    self._run_one(entry, data)
                self._current_ops = ()
                # Speculative batch results the round did not consume
                # (budget truncation, load faults) are dropped unmerged.
                self.backend.discard_plan()
                if self.stats.executions % 64 == 0:
                    self.queue.cull()
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
        if self._stop_requested and self.checkpoint_path:
            self.checkpoint()
        return self.stats

    def request_stop(self) -> None:
        """Ask the loop to stop cleanly after the in-flight execution.

        Safe to call from a signal handler: it only sets a flag; the
        fuzzing loop observes it at the next round boundary and
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
        if self.checkpoint_every is None:
            return
        if self.vclock < self._next_checkpoint:
            return
        # Advance the schedule *before* capturing so a resumed campaign
        # inherits the already-advanced value and the trajectory of
        # checkpoints (which never mutates campaign state) lines up.
        self._next_checkpoint = self.vclock + self.checkpoint_every
        self.checkpoint()

    def checkpoint(self, path: Optional[str] = None) -> str:
        """Atomically snapshot the complete campaign state to disk."""
        from repro.resilience.checkpoint import write_engine_checkpoint

        target = path or self.checkpoint_path
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
            # on replayed tails carrying identical (member, seq) pairs).
            self.trace.emit("checkpoint", self.vclock,
                            path=os.path.basename(target))
            write_engine_checkpoint(target, self)
            self.trace.flush()
        return target

    @classmethod
    def resume(cls, path: str, injector=None) -> "FuzzEngine":
        """Rebuild a campaign from its last checkpoint.

        The engine class is chosen from the checkpointed configuration
        (a PMFuzz config resumes as a
        :class:`~repro.core.pmfuzz.PMFuzzEngine`), so calling this on
        either class returns the right engine.  ``injector`` re-attaches
        a workload-level :class:`BugInjector`, which is process state
        and cannot be checkpointed.
        """
        from repro.resilience.checkpoint import resume_campaign

        return resume_campaign(path, injector=injector)

    def _children_of(self, entry: QueueEntry) -> List[bytes]:
        """Mutated inputs for one fuzzing round of ``entry``."""
        children: List[bytes] = []
        ops: List[tuple] = []
        with self.profiler.stage("mutate"):
            if entry.fuzz_rounds == 1 and self.config.input_fuzz:
                det = self.mutator.deterministic(entry.data, limit=8)
                children.extend(det)
                ops.extend([("deterministic",)] * len(det))
            for _ in range(self.havoc_batch):
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
        deserialized from the fault-free store read
        (:meth:`~repro.core.dedup.ImageStore.raw_serialized`) — never
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
            image_bytes = self.storage.store.raw_serialized(image_id)
            if image_bytes is None:
                return
            image = PMImage.from_bytes(image_bytes)
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
        # PM-path prioritization hook (Algorithm 2 in PMFuzz).
        priority = self.priority_for(result)
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
            self.on_new_pm_path(parent, data, result,
                                pm_novel=pm_new_path or pm_new_bucket)
        else:
            self.on_result(parent, data, result)
        self._sample()

    # ------------------------------------------------------------------
    # Hook points (overridden by PMFuzzEngine)
    # ------------------------------------------------------------------
    def priority_for(self, result: ExecResult) -> int:
        """Algorithm-2 Favored value; the AFL++ baseline ignores PM paths."""
        return 0

    def on_new_pm_path(self, parent: QueueEntry, data: bytes,
                       result: ExecResult, pm_novel: bool = True) -> None:
        """Called for saved / PM-novel test cases (base: no-op)."""

    def on_result(self, parent: QueueEntry, data: bytes,
                  result: ExecResult) -> None:
        """Called for every non-saved execution (base: no-op)."""

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _sample(self, force: bool = False) -> None:
        if not force and self.vclock < self._next_sample:
            return
        self._next_sample = self.vclock + self.sample_interval
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
        if self.trace_dir is None:
            return None
        if self._status is None:
            self._status = StatusWriter(
                os.path.join(self.trace_dir, status_name(-1)),
                every_vtime=self.status_every)
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
