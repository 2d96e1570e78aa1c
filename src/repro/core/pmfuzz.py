"""The PMFuzz engine: PM-path feedback + image generation (Figure 11).

:class:`PMFuzzEngine` extends the AFL++-style loop with the paper's
three ideas:

1. **PM-path prioritization** (Algorithm 2) — the ``priority_for`` hook
   assigns Favored 2/1/0 from the PM counter-map, so test cases that
   explore new PM paths drive future mutation.
2. **Normal image generation via program logic** (Section 3.1) — a test
   case that covered a new PM path contributes its *output* image back
   into the queue; future inputs execute on top of it, so the image is
   mutated indirectly, one valid state to the next.
3. **Crash image generation** (Section 3.2) — the same test case is
   re-executed with failures at its ordering points (plus probabilistic
   extras); the resulting crash images enter the queue too, so the
   *recovery* paths get fuzzed.

All generated images are SHA-256-deduplicated and recorded in the
Figure-12 test-case tree.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import FrozenSet, Optional, Sequence

from repro.core.config import (RUN_OPTIONS, FuzzConfig, ImgFuzzMode,
                               RunConfig, config_by_name)
from repro.core.crashgen import CrashImageGenerator
from repro.core.priority import pm_path_priority
from repro.errors import FuzzerError, HarnessFaultError
from repro.fuzz.engine import DEFAULT_SEED_INPUTS, FuzzEngine
from repro.fuzz.executor import ExecResult
from repro.fuzz.queue import QueueEntry
from repro.fuzz.rng import DeterministicRandom
from repro.fuzz.stats import FuzzStats
from repro.resilience.faults import EnvFaultInjector, as_fault_plan
from repro.workloads.registry import get_workload


class PMFuzzEngine(FuzzEngine):
    """The full PMFuzz fuzzing procedure (Figure 11)."""

    @cached_property
    def crashgen(self) -> CrashImageGenerator:
        # Crash generation runs through the supervisor too, so an
        # environment fault during it is retried or absorbed instead of
        # killing the campaign.
        return CrashImageGenerator(self.supervisor, self.rng)

    # ------------------------------------------------------------------
    def priority_for(self, result: ExecResult) -> int:
        """Algorithm 2: unseen slot → 2, different counter → 1, else 0."""
        if not self.config.pm_path_opt:
            return 0
        return pm_path_priority(self.pm_cov, result.pm_sparse)

    def on_new_pm_path(self, parent: QueueEntry, data: bytes,
                       result: ExecResult, pm_novel: bool = True) -> None:
        """Steps ➌-➎ of Figure 11: generate and enqueue PM images."""
        if self.config.img_fuzz is not ImgFuzzMode.INDIRECT:
            return
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
        # points; every (modeled) re-execution is charged to the virtual
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
            for crash in self.crashgen.generate(
                    parent_image, data,
                    result.fence_count, result.store_count):
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

    def on_result(self, parent: QueueEntry, data: bytes,
                  result: ExecResult) -> None:
        """Probabilistic image chaining for non-novel executions.

        The real fuzzer reuses output images across iterations regardless
        of coverage novelty (the mutation of the persistent state *is*
        the point of indirect image fuzzing); a quarter of the non-saved
        runs contribute their output image here, which is what lets the
        accumulated state cross deep thresholds (the hashmap rebuild,
        slab exhaustion, multi-level tree splits) after path-coverage
        novelty has dried up.
        """
        if self.config.img_fuzz is not ImgFuzzMode.INDIRECT:
            return
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


def build_engine(
    workload_name: str,
    config: FuzzConfig,
    rng: Optional[DeterministicRandom] = None,
    bugs: FrozenSet[str] = frozenset(),
    seed_inputs: Sequence[bytes] = DEFAULT_SEED_INPUTS,
    injector=None,
    fault_plan=None,
    run_config: RunConfig = RunConfig(),
    **options,
) -> FuzzEngine:
    """Construct the right engine class for a Table-2 configuration.

    ``fault_plan`` (a :class:`~repro.resilience.faults.FaultPlan` or a
    ``site:rate[:burst]`` spec string) arms environment-fault injection
    across the harness.  ``options`` are :class:`RunConfig` fields that
    override ``run_config``'s; any other keyword is an error.  The
    engine's ``campaign_meta`` records everything needed to rebuild it,
    which is what makes checkpoints self-describing (see
    :mod:`repro.resilience.checkpoint`).
    """
    unknown = sorted(set(options) - RUN_OPTIONS)
    if unknown:
        raise FuzzerError(f"unknown engine options: {', '.join(unknown)}")
    run_config = replace(run_config, **options)
    rng = rng or DeterministicRandom().fork(f"{workload_name}/{config.name}")
    plan = as_fault_plan(fault_plan)
    env_faults = EnvFaultInjector(plan) if plan is not None else None
    factory = lambda: get_workload(workload_name, bugs=bugs)  # noqa: E731
    cls = PMFuzzEngine if config.is_pmfuzz else FuzzEngine
    engine = cls(factory, config, run_config, rng=rng,
                 seed_inputs=seed_inputs, injector=injector,
                 env_faults=env_faults)
    engine.campaign_meta = {
        "workload": workload_name,
        "config": config.name,
        "bugs": sorted(bugs),
        "seed_inputs": [bytes(s) for s in seed_inputs],
        "fault_plan": plan,
        "engine_kwargs": run_config.options(),
    }
    return engine


def run_campaign(
    workload_name: str,
    config_name: str,
    budget_vseconds: float,
    bugs: FrozenSet[str] = frozenset(),
    seed: int = 0x504D465A,
    injector=None,
    fault_plan=None,
    engine_hook=None,
    **options,
) -> FuzzStats:
    """Run one complete campaign and return its statistics.

    This is the single entry point the benchmarks (and the quickstart
    example) use: workload × Table-2 configuration × virtual budget.
    ``options`` go to :func:`build_engine` (a ``run_config`` and/or
    :class:`RunConfig` fields).

    A checkpointed campaign continues through
    :func:`~repro.resilience.checkpoint.resume_campaign` instead.

    ``engine_hook(engine)`` runs after construction and before the
    campaign starts — the CLI uses it to wire graceful SIGINT/SIGTERM
    handling to the live engine.
    """
    config = config_by_name(config_name)
    rng = DeterministicRandom(seed).fork(f"{workload_name}/{config.name}")
    engine = build_engine(workload_name, config, rng=rng, bugs=bugs,
                          injector=injector, fault_plan=fault_plan,
                          **options)
    if engine_hook is not None:
        engine_hook(engine)
    return engine.run(budget_vseconds)

