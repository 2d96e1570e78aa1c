"""The campaign factory: one :class:`~repro.fuzz.engine.FuzzEngine` per
workload × Table-2 configuration.

The configuration alone decides what the engine does (see
:mod:`repro.fuzz.engine`): under the two PMFuzz configurations it
prioritizes PM paths (Algorithm 2) and generates normal and crash images
(Sections 3.1-3.2, Figure 11); under the AFL++ ones it does neither.
:func:`build_engine` records the campaign's provenance so checkpoints
are self-describing, and :func:`run_campaign` runs one campaign to its
budget.
"""

from __future__ import annotations

from dataclasses import replace
from typing import FrozenSet, Optional, Sequence

from repro.core.config import (RUN_OPTIONS, FuzzConfig, RunConfig,
                               config_by_name)
from repro.errors import FuzzerError
from repro.fuzz.engine import DEFAULT_SEED_INPUTS, FuzzEngine
from repro.fuzz.rng import DeterministicRandom
from repro.fuzz.stats import FuzzStats
from repro.resilience.faults import EnvFaultInjector, as_fault_plan
from repro.workloads.registry import get_workload


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
    """Construct the engine for one workload and Table-2 configuration.

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
    engine = FuzzEngine(factory, config, run_config, rng=rng,
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

