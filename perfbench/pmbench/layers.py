"""Outside-in layer tracing: wrappers around each layer's entry points.

:class:`LayerTracer` replaces the public entry points of every layer
with wrappers that open a span, call the original, close the span and
update the layer's counters.  The wrappers only observe: the traced
campaign's ``comparable()`` digest must equal the untraced one's, which
the benchmark checks on every traced iteration.  They live here, outside
``repro/workloads``, so the branch-coverage tracer never instruments
them.

Only the benchmark process records.  Under fork isolation the worker
inherits the wrappers but passes straight through, so the layers below
``isolation`` (executor, warm-open cache, workload commands, pool)
read zero on that workload: their time shows up as ``isolation.wait_s``.
"""

from __future__ import annotations

import functools
import importlib
import os
from typing import Callable, Dict, List, Optional, Tuple

from pmbench.spans import SpanRecorder, root_wall, self_time_by_name

Hook = Callable[[SpanRecorder, tuple, dict, object, bool], None]


def _commands(rec, args, kwargs, result, outer):
    run_result = args[3] if len(args) > 3 else kwargs["result"]
    rec.count("workloads.commands_run", run_result.commands_run)


def _pool_open(rec, args, kwargs, result, outer):
    rec.count("pmdk.pool.open_calls")


def _novel(rec, args, kwargs, result, outer):
    if result is not None and any(result):
        rec.count("fuzz.coverage.novel")


def _crash_images(rec, args, kwargs, result, outer):
    rec.count("core.crashgen.images", len(result or ()))


def _put(rec, args, kwargs, result, outer):
    if result is not None and result[1]:
        rec.count("core.dedup.put_new")


def _dispatch(jobs_of: Callable[[tuple, dict], int]) -> Hook:
    def hook(rec, args, kwargs, result, outer):
        if outer:
            rec.count("isolation.jobs", jobs_of(args, kwargs))
    return hook


def _exec_result(rec, args, kwargs, result, outer):
    if result is None:
        return
    rec.count("exec.results")
    rec.count("exec.stores", result.store_count)
    rec.count("exec.fences", result.fence_count)
    rec.count("exec.branch_slots", len(result.branch_sparse))
    rec.count("exec.pm_slots", len(result.pm_sparse))


def _test(rec, args, kwargs, result, outer):
    rec.count("detect.tests")


def _confirm(rec, args, kwargs, result, outer):
    rec.count("detect.confirm_calls")
    if result:
        rec.count("detect.confirmed")


#: (module, class or None for a module function, attribute, span, hook)
TARGETS: List[Tuple[str, Optional[str], str, str, Optional[Hook]]] = [
    ("repro.fuzz.executor", "Executor", "run", "fuzz.executor", None),
    ("repro.fuzz.executor", "Executor", "run_raw_image", "fuzz.executor",
     None),
    ("repro.fuzz.warmcache", "WarmContext", "lookup", "fuzz.warmcache", None),
    ("repro.fuzz.warmcache", "WarmContext", "store", "fuzz.warmcache", None),
    ("repro.workloads.base", "Workload", "run_commands",
     "workloads.commands", _commands),
    ("repro.workloads.base", "Workload", "run_prefix", "pmdk.pool.open", None),
    ("repro.pmdk.pool", "PmemObjPool", "open", "pmdk.pool.open", _pool_open),
    ("repro.pmdk.pool", "PmemObjPool", "close", "pmdk.pool.close", None),
    ("repro.fuzz.mutators", "MutationEngine", "deterministic",
     "fuzz.mutators", None),
    ("repro.fuzz.mutators", "MutationEngine", "havoc", "fuzz.mutators", None),
    ("repro.fuzz.mutators", "MutationEngine", "splice", "fuzz.mutators", None),
    ("repro.fuzz.queue", "FuzzQueue", "add", "fuzz.queue", None),
    ("repro.fuzz.queue", "FuzzQueue", "select", "fuzz.queue", None),
    ("repro.fuzz.queue", "FuzzQueue", "cull", "fuzz.queue", None),
    ("repro.fuzz.coverage", "GlobalCoverage", "update", "fuzz.coverage",
     _novel),
    ("repro.fuzz.coverage", "VectorGlobalCoverage", "update",
     "fuzz.coverage", _novel),
    ("repro.core.crashgen", "CrashImageGenerator", "generate",
     "core.crashgen", _crash_images),
    ("repro.core.dedup", "ImageStore", "put", "core.dedup.put", _put),
    ("repro.core.dedup", "ImageStore", "get", "core.dedup.get", None),
    ("repro.isolation.backend", "ForkServerBackend", "run", "isolation",
     None),
    ("repro.isolation.backend", "ForkServerBackend", "run_raw_image",
     "isolation", None),
    ("repro.isolation.pool", "ForkWorkerPool", "submit", "isolation.wait",
     _dispatch(lambda args, kwargs: 1)),
    ("repro.isolation.pool", "ForkWorkerPool", "submit_batch",
     "isolation.wait",
     _dispatch(lambda args, kwargs: len(args[1] if len(args) > 1
                                        else kwargs["jobs"]))),
    ("repro.resilience.supervisor", "SupervisedExecutor", "run",
     "resilience.supervisor", _exec_result),
    ("repro.resilience.supervisor", "SupervisedExecutor", "run_raw_image",
     "resilience.supervisor", _exec_result),
    ("repro.detect.report", "TestingTool", "test", "detect", _test),
    ("repro.core.pipeline", None, "confirm_synthetic_bug", "detect",
     _confirm),
    ("repro.detect.pmemcheck", "Pmemcheck", "analyze", "detect.pmemcheck",
     None),
    ("repro.detect.xfdetector", "XFDetector", "check_image", "detect.xfd",
     None),
]


def _wrap(rec: SpanRecorder, span: str, fn, hook: Optional[Hook]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.pid != os.getpid():
            return fn(*args, **kwargs)
        outer = rec.parent_name() != span
        index = rec.open(span)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.close(index)
            if outer:
                rec.count(span + ".calls")
            if hook is not None:
                hook(rec, args, kwargs, result, outer)
    return wrapper


class LayerTracer:
    """Installs the span wrappers for the duration of a ``with`` block."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        for module_name, class_name, attr, span, hook in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(_wrap(self.recorder, span, raw.__func__,
                                          hook))
            else:
                patched = _wrap(self.recorder, span, raw, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


#: Every per-layer metric, in report order: (name, unit).
PER_LAYER: List[Tuple[str, str]] = [
    ("workloads.commands_s", "s"),
    ("workloads.commands_run", "count"),
    ("pmem.stores_per_exec", "stores/exec"),
    ("pmem.fences_per_exec", "fences/exec"),
    ("instrument.branch_slots_per_exec", "slots/exec"),
    ("instrument.pm_slots_per_exec", "slots/exec"),
    ("pmdk.pool.open_calls", "count"),
    ("pmdk.pool.open_s", "s"),
    ("pmdk.pool.close_s", "s"),
    ("fuzz.warmcache.hits", "count"),
    ("fuzz.warmcache.misses", "count"),
    ("fuzz.warmcache.bypasses", "count"),
    ("fuzz.warmcache.hit_ratio", "ratio"),
    ("fuzz.warmcache.self_s", "s"),
    ("fuzz.executor.calls", "count"),
    ("fuzz.executor.self_s", "s"),
    ("fuzz.mutators.calls", "count"),
    ("fuzz.mutators.self_s", "s"),
    ("fuzz.queue.calls", "count"),
    ("fuzz.queue.self_s", "s"),
    ("fuzz.coverage.calls", "count"),
    ("fuzz.coverage.self_s", "s"),
    ("fuzz.coverage.novel_ratio", "ratio"),
    ("core.crashgen.calls", "count"),
    ("core.crashgen.self_s", "s"),
    ("core.crashgen.images", "count"),
    ("core.crashgen.new_ratio", "ratio"),
    ("core.dedup.put_calls", "count"),
    ("core.dedup.put_s", "s"),
    ("core.dedup.new_ratio", "ratio"),
    ("core.dedup.get_calls", "count"),
    ("core.dedup.get_s", "s"),
    ("core.dedup.compression_ratio", "ratio"),
    ("isolation.dispatches", "count"),
    ("isolation.jobs_per_dispatch", "jobs/dispatch"),
    ("isolation.wait_s", "s"),
    ("isolation.self_s", "s"),
    ("isolation.worker_recycles", "count"),
    ("isolation.worker_crashes", "count"),
    ("detect.tests", "count"),
    ("detect.self_s", "s"),
    ("detect.pmemcheck_s", "s"),
    ("detect.xfd_checks", "count"),
    ("detect.xfd_s", "s"),
    ("detect.confirm_ratio", "ratio"),
    ("resilience.supervisor.retries", "count"),
    ("resilience.supervisor.harness_faults", "count"),
    ("resilience.supervisor.timeouts", "count"),
    ("resilience.supervisor.self_s", "s"),
    ("engine.unattributed_s", "s"),
    ("engine.traced_wall_s", "s"),
    ("engine.trace_overhead", "ratio"),
]

#: Campaign-level sums the runner collects from each traced iteration.
ITERATION_TOTALS = ("warm_hits", "warm_misses", "warm_bypasses",
                    "crash_images_new", "raw_bytes", "stored_bytes",
                    "worker_recycles", "worker_crashes", "retries",
                    "harness_faults", "timeouts")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts: Dict[str, float],
                  totals: Dict[str, float], iterations: int,
                  trace_overhead: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric, per traced iteration.

    Times and counts are means per iteration; ratios are taken over the
    run's totals.  ``spans`` must hold one ``engine`` root per iteration.
    """
    own = self_time_by_name(spans)
    n = max(1, iterations)

    def t(name: str) -> float:
        return own.get(name, 0.0) / n

    def c(key: str) -> float:
        return counts.get(key, 0.0)

    execs = c("exec.results")
    warm_total = (totals["warm_hits"] + totals["warm_misses"]
                  + totals["warm_bypasses"])
    metrics = {
        "workloads.commands_s": t("workloads.commands"),
        "workloads.commands_run": c("workloads.commands_run") / n,
        "pmem.stores_per_exec": _ratio(c("exec.stores"), execs),
        "pmem.fences_per_exec": _ratio(c("exec.fences"), execs),
        "instrument.branch_slots_per_exec": _ratio(c("exec.branch_slots"),
                                                   execs),
        "instrument.pm_slots_per_exec": _ratio(c("exec.pm_slots"), execs),
        "pmdk.pool.open_calls": c("pmdk.pool.open_calls") / n,
        "pmdk.pool.open_s": t("pmdk.pool.open"),
        "pmdk.pool.close_s": t("pmdk.pool.close"),
        "fuzz.warmcache.hits": totals["warm_hits"] / n,
        "fuzz.warmcache.misses": totals["warm_misses"] / n,
        "fuzz.warmcache.bypasses": totals["warm_bypasses"] / n,
        "fuzz.warmcache.hit_ratio": _ratio(totals["warm_hits"], warm_total),
        "fuzz.warmcache.self_s": t("fuzz.warmcache"),
        "fuzz.executor.calls": c("fuzz.executor.calls") / n,
        "fuzz.executor.self_s": t("fuzz.executor"),
        "fuzz.mutators.calls": c("fuzz.mutators.calls") / n,
        "fuzz.mutators.self_s": t("fuzz.mutators"),
        "fuzz.queue.calls": c("fuzz.queue.calls") / n,
        "fuzz.queue.self_s": t("fuzz.queue"),
        "fuzz.coverage.calls": c("fuzz.coverage.calls") / n,
        "fuzz.coverage.self_s": t("fuzz.coverage"),
        "fuzz.coverage.novel_ratio": _ratio(c("fuzz.coverage.novel"),
                                            c("fuzz.coverage.calls")),
        "core.crashgen.calls": c("core.crashgen.calls") / n,
        "core.crashgen.self_s": t("core.crashgen"),
        "core.crashgen.images": c("core.crashgen.images") / n,
        "core.crashgen.new_ratio": _ratio(totals["crash_images_new"],
                                          c("core.crashgen.images")),
        "core.dedup.put_calls": c("core.dedup.put.calls") / n,
        "core.dedup.put_s": t("core.dedup.put"),
        "core.dedup.new_ratio": _ratio(c("core.dedup.put_new"),
                                       c("core.dedup.put.calls")),
        "core.dedup.get_calls": c("core.dedup.get.calls") / n,
        "core.dedup.get_s": t("core.dedup.get"),
        "core.dedup.compression_ratio": _ratio(totals["raw_bytes"],
                                               totals["stored_bytes"]),
        "isolation.dispatches": c("isolation.wait.calls") / n,
        "isolation.jobs_per_dispatch": _ratio(c("isolation.jobs"),
                                              c("isolation.wait.calls")),
        "isolation.wait_s": t("isolation.wait"),
        "isolation.self_s": t("isolation"),
        "isolation.worker_recycles": totals["worker_recycles"] / n,
        "isolation.worker_crashes": totals["worker_crashes"] / n,
        "detect.tests": c("detect.tests") / n,
        "detect.self_s": t("detect"),
        "detect.pmemcheck_s": t("detect.pmemcheck"),
        "detect.xfd_checks": c("detect.xfd.calls") / n,
        "detect.xfd_s": t("detect.xfd"),
        "detect.confirm_ratio": _ratio(c("detect.confirmed"),
                                       c("detect.confirm_calls")),
        "resilience.supervisor.retries": totals["retries"] / n,
        "resilience.supervisor.harness_faults": totals["harness_faults"] / n,
        "resilience.supervisor.timeouts": totals["timeouts"] / n,
        "resilience.supervisor.self_s": t("resilience.supervisor"),
        "engine.unattributed_s": t("engine"),
        "engine.traced_wall_s": root_wall(spans) / n,
        "engine.trace_overhead": trace_overhead,
    }
    return metrics


def attributed_seconds(metrics: Dict[str, float]) -> float:
    """Sum of every layer's self time plus the unattributed residual.

    Every ``*_s`` metric but the traced wall is a self time, so this
    equals ``engine.traced_wall_s`` when the spans nest properly; the
    benchmark prints both so the identity can be checked by eye.
    """
    return sum(value for name, value in metrics.items()
               if name.endswith("_s") and name != "engine.traced_wall_s")
