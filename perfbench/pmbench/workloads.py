"""The benchmark's workloads and one iteration of each.

An *iteration* is one complete, closed-loop campaign: build the engine,
set it up, fuzz a fixed virtual budget, and — on the detection workload —
score the Table-3 synthetic bugs with replay confirmation.  Everything
the program receives is generated here from the iteration's seed: the
engine's random stream and the seed command scripts.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: The benchmark's default ``--seed``; its first iteration's digest is
#: pinned per workload in ``pins.json``.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    program: str  #: workload registry name
    config: str  #: Table-2 configuration short name
    budget: float  #: virtual seconds of fuzzing per iteration
    #: Wall seconds of one iteration on the reference host (2-core
    #: x86-64, py3.11); sizes a run's seed list to fill ~--seconds.
    nominal_s: float
    detect: bool = False
    engine_kwargs: Dict[str, object] = field(default_factory=dict)


#: Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, WorkloadSpec] = {spec.name: spec for spec in (
    WorkloadSpec(
        "pmfuzz-btree", "btree", "pmfuzz", budget=2.0, nominal_s=1.8),
    WorkloadSpec(
        "aflpp-fork-btree", "btree", "aflpp_sysopt", budget=1.0,
        nominal_s=1.1,
        engine_kwargs={"isolation": "fork", "isolation_workers": 1,
                       "batch_execs": 8}),
    WorkloadSpec(
        "table3-hashmap_tx", "hashmap_tx", "pmfuzz", budget=1.0,
        nominal_s=2.0, detect=True),
)}


def subseed(seed: int, index: int) -> int:
    """The ``index``-th iteration seed of a run (index 0 is ``seed``)."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def seed_inputs(seed: int) -> List[bytes]:
    """Two insert-heavy mapcli scripts, shaped like the default seeds."""
    rng = random.Random(seed)
    keys = rng.sample(range(1, 64), 7)
    first = [f"i {k} {rng.randrange(1, 100)}" for k in keys[:4]]
    first += [f"g {keys[0]}", f"r {keys[1]}"]
    second = [f"i {k} {rng.randrange(1, 100)}" for k in keys[4:]]
    second += [f"r {keys[5]}", "q", "n"]
    return [("\n".join(first) + "\n").encode(),
            ("\n".join(second) + "\n").encode()]


def _plain(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=repr)
    if isinstance(obj, (bytes, bytearray)):
        return obj.hex()
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(comparable: dict, confirmed: Optional[List[str]] = None) -> str:
    """SHA-256 over the canonical JSON of ``comparable()`` (+ detections)."""
    doc = {"stats": comparable, "confirmed": confirmed}
    blob = json.dumps(doc, sort_keys=True, default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Iteration:
    """What one iteration measured and produced."""

    seed: int
    digest: str
    setup_s: float
    loop_s: float
    detect_s: float
    loop_execs: int
    executions: int
    crash_images: int
    pm_paths: int
    bugs_confirmed: int
    harness_faults: int
    totals: Dict[str, float]

    @property
    def campaign_s(self) -> float:
        return self.loop_s + self.detect_s


def run_iteration(spec: WorkloadSpec, seed: int, recorder=None,
                  budget: Optional[float] = None) -> Iteration:
    """Run one campaign (plus detection) and time its stages.

    With a ``recorder`` the iteration is one ``engine`` root span and the
    detection stage a ``detect`` span; the layer wrappers must already
    be installed by the caller.  ``budget`` overrides the workload's
    virtual budget (the untimed warm-up iteration uses a short one).
    """
    from repro.core.config import config_by_name
    from repro.core.pipeline import evaluate_synthetic_bugs
    from repro.core.pmfuzz import build_engine
    from repro.fuzz.rng import DeterministicRandom

    root = recorder.open("engine") if recorder is not None else None
    t0 = time.perf_counter()
    config = config_by_name(spec.config)
    rng = DeterministicRandom(seed).fork(f"{spec.program}/{config.name}")
    engine = build_engine(spec.program, config, rng=rng,
                          seed_inputs=seed_inputs(seed),
                          **spec.engine_kwargs)
    try:
        engine.setup()
        t1 = time.perf_counter()
        setup_execs = engine.stats.executions
        stats = engine.run(budget or spec.budget)
        t2 = time.perf_counter()
    finally:
        engine.close()
    confirmed = None
    if spec.detect:
        stage = recorder.open("detect") if recorder is not None else None
        detections = evaluate_synthetic_bugs(spec.program, stats,
                                             engine.storage, confirm=True)
        if stage is not None:
            recorder.close(stage)
        confirmed = sorted(d.bug.bug_id for d in detections if d.confirmed)
    t3 = time.perf_counter()
    if root is not None:
        recorder.close(root)
    store = engine.storage.store
    cache = engine.executor.warm_cache
    totals = {
        "warm_hits": cache.hits if cache else 0,
        "warm_misses": cache.misses if cache else 0,
        "warm_bypasses": cache.bypasses if cache else 0,
        "crash_images_new": stats.crash_images_generated,
        "raw_bytes": store.raw_bytes,
        "stored_bytes": store.stored_bytes,
        "worker_recycles": stats.worker_recycles,
        "worker_crashes": stats.worker_crashes,
        "retries": stats.retries,
        "harness_faults": stats.harness_faults,
        "timeouts": stats.timeouts,
    }
    return Iteration(
        seed=seed,
        digest=digest(stats.comparable(), confirmed),
        setup_s=t1 - t0,
        loop_s=t2 - t1,
        detect_s=t3 - t2,
        loop_execs=stats.executions - setup_execs,
        executions=stats.executions,
        crash_images=stats.crash_images_generated,
        pm_paths=stats.final_pm_paths,
        bugs_confirmed=len(confirmed or ()),
        harness_faults=stats.harness_faults,
        totals=totals,
    )
