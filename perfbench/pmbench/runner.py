"""One benchmark run: iterations, output checks, metrics.

A run is one process, closed loop: each campaign's next execution starts
only when the previous one returned.  It executes iteration seeds
derived from ``--seed``; their number is sized from ``--seconds`` and
the workload's nominal iteration time.

* Untraced (``--trace 0``): every seed once, then the first two seeds
  again, whose ``comparable()`` digests must equal their first run's.
  Each figure summarises the iterations with
  :func:`~pmbench.report.run_value`: the faster quartile for timings,
  the mean over the distinct seeds for ``pm_paths``.
* Traced (``--trace 1``): each seed runs untraced, then traced with the
  layer wrappers installed.  The two digests must be equal (the
  wrappers only observe), and the ratio of their ``execs_per_s``
  medians is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
from typing import Dict, List

from pmbench.layers import (ITERATION_TOTALS, PER_LAYER, LayerTracer,
                            attributed_seconds, layer_metrics)
from pmbench.report import (END_TO_END, WORKLOAD_SPECIFIC, format_table,
                            run_value)
from pmbench.spans import SpanRecorder
from pmbench.workloads import (DEFAULT_SEED, Iteration, WorkloadSpec,
                               run_iteration, subseed)

PINS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pins.json")


def plan_for(spec: WorkloadSpec, seed: int, seconds: float,
             traced: bool) -> List[int]:
    """Iteration seeds of one run, filling about ``seconds``."""
    count = max(1, round(seconds / spec.nominal_s))
    if traced:
        return [subseed(seed, i) for i in range(max(1, count // 2))]
    distinct = [subseed(seed, i) for i in range(max(1, count - 2))]
    return distinct + distinct[:2]


def load_pins() -> Dict[str, dict]:
    with open(PINS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Output checks; every failure is one failed operation."""

    def __init__(self, spec: WorkloadSpec, pins: Dict[str, dict]) -> None:
        self.spec = spec
        self.pin = pins.get(spec.name, {})
        self.first: Dict[int, str] = {}
        self.problems: List[str] = []

    def check(self, it: Iteration, reference: str = "") -> None:
        first = self.first.setdefault(it.seed, it.digest)
        if it.digest != first:
            self.problems.append(
                f"seed {it.seed}: digest {it.digest[:12]} differs from the "
                f"first run's {first[:12]}{reference}")
        if it.seed == DEFAULT_SEED and it.digest != self.pin.get("digest"):
            self.problems.append(
                f"seed {it.seed}: digest {it.digest[:12]} differs from the "
                f"pinned {str(self.pin.get('digest'))[:12]}")
        floor = self.pin.get("min_bugs_confirmed")
        if self.spec.detect and floor is not None \
                and it.bugs_confirmed < floor:
            self.problems.append(
                f"seed {it.seed}: {it.bugs_confirmed} bugs confirmed, "
                f"pinned minimum {floor}")


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _iterations(spec: WorkloadSpec, seeds: List[int], checker: Checker,
                recorder=None) -> List[Iteration]:
    """Run ``seeds``: untraced, or untraced then traced per seed when a
    recorder is given."""
    # One short untimed warm-up: imports, code caches and allocator
    # arenas are paid here instead of by the first measured iteration.
    run_iteration(spec, seeds[0], budget=spec.budget / 4)
    done: List[Iteration] = []
    for seed in seeds:
        modes = [None] if recorder is None else [None, recorder]
        for rec in modes:
            if rec is None:
                it = run_iteration(spec, seed)
            else:
                rec.run += 1
                with LayerTracer(rec):
                    it = run_iteration(spec, seed, recorder=rec)
            checker.check(it, reference="" if rec is None
                          else " (traced run)")
            done.append(it)
    return done


def _result(iterations, checker, metrics, samples, log) -> dict:
    attempted = sum(it.executions for it in iterations)
    failed = (sum(it.harness_faults for it in iterations)
              + len(checker.problems))
    for problem in checker.problems:
        log(f"CHECK FAILED: {problem}")
    return {
        "correct": not checker.problems and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "problems": checker.problems,
    }


def measure(spec: WorkloadSpec, seed: int, seconds: float, log) -> dict:
    """The untraced run: end-to-end metrics."""
    checker = Checker(spec, load_pins())
    seeds = plan_for(spec, seed, seconds, traced=False)
    iterations = _iterations(spec, seeds, checker)
    distinct = {it.seed: it for it in iterations}.values()
    samples = {
        "execs_per_s": [it.loop_execs / it.loop_s for it in iterations],
        "pm_paths": [float(it.pm_paths) for it in distinct],
        "campaign_s": [it.campaign_s for it in iterations],
        "setup_s": [it.setup_s for it in iterations],
        "peak_rss_mib": [_peak_rss_mib()],
        "crash_images_per_s": [it.crash_images / it.loop_s
                               for it in iterations],
    }
    if spec.detect:
        samples["bugs_confirmed"] = [float(it.bugs_confirmed)
                                     for it in distinct]
        samples["detect_s"] = [it.detect_s for it in iterations]
    result = _result(iterations, checker, {}, samples, log)
    samples["failed_frac"] = [result["failed"] / result["attempted"]]
    specs = {name: (unit, better)
             for name, unit, better in END_TO_END + WORKLOAD_SPECIFIC}
    values = {name: run_value(name, v, specs[name][1])
              for name, v in samples.items()}
    log(f"{spec.name}: {len(iterations)} iterations, {len(distinct)} "
        f"distinct seeds, {spec.budget} virtual s each")
    log(format_table((name, specs[name][0], values[name], v)
                     for name, v in samples.items()))
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit, _ in END_TO_END}
    return result


def trace(spec: WorkloadSpec, seed: int, seconds: float, log,
          spans_path: str) -> dict:
    """The traced run: per-layer metrics and the tracing overhead."""
    checker = Checker(spec, load_pins())
    seeds = plan_for(spec, seed, seconds, traced=True)
    recorder = SpanRecorder()
    iterations = _iterations(spec, seeds, checker, recorder)
    plain, traced = iterations[0::2], iterations[1::2]
    untraced_eps = [it.loop_execs / it.loop_s for it in plain]
    traced_eps = [it.loop_execs / it.loop_s for it in traced]
    totals = {key: sum(it.totals[key] for it in traced)
              for key in ITERATION_TOTALS}
    spans = recorder.finished()
    recorder.dump(spans_path)
    overhead = statistics.median(untraced_eps) / statistics.median(traced_eps)
    values = layer_metrics(spans, recorder.counts, totals, len(traced),
                           overhead)
    log(f"{spec.name}: {len(traced)} traced iterations "
        f"({len(spans)} spans -> {spans_path})")
    log(format_table((name, unit, values[name], [values[name]])
                     for name, unit in PER_LAYER))
    wall = values["engine.traced_wall_s"]
    residual = values["engine.unattributed_s"]
    log(f"  self times + unattributed = {attributed_seconds(values):.6f} s; "
        f"traced wall = {wall:.6f} s per iteration; "
        f"unattributed share {residual / wall:.1%}")
    log(f"  tracing overhead: untraced {statistics.median(untraced_eps):.1f}"
        f" vs traced {statistics.median(traced_eps):.1f} execs/s "
        f"({overhead:.3f}x)")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER}
    return _result(iterations, checker, metrics,
                   {"untraced_execs_per_s": untraced_eps,
                    "traced_execs_per_s": traced_eps}, log)
