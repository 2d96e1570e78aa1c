"""Summaries, host fingerprint, result documents and the compare verdict."""

from __future__ import annotations

import glob
import json
import os
import platform
import statistics
import sys
from typing import Dict, Iterable, List, Sequence, Tuple

#: The end-to-end metrics every workload reports: (name, unit, better).
END_TO_END: List[Tuple[str, str, str]] = [
    ("execs_per_s", "execs/s", "higher"),
    ("pm_paths", "slots", "higher"),
    ("campaign_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

#: Printed where they apply, but not bounded: they are zero (or absent)
#: on some workloads, so they cannot be compared as a share of a median.
WORKLOAD_SPECIFIC: List[Tuple[str, str, str]] = [
    ("crash_images_per_s", "images/s", "higher"),
    ("bugs_confirmed", "bugs", "higher"),
    ("detect_s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
]

#: Fixed for a given seed; a run reports their mean over its seeds.
DETERMINISTIC = ("pm_paths", "bugs_confirmed")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when flat)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def run_value(name: str, values: Sequence[float], better: str) -> float:
    """One run's figure for a metric from its per-iteration samples.

    Interference from other tenants of a shared host only ever slows an
    iteration, and it comes in phases of seconds, so a run's faster
    quartile (the upper one of rates, the lower one of times) tracks the
    program's own speed more closely than its median.
    """
    if name in DETERMINISTIC:
        return statistics.fmean(values)
    if len(values) == 1:
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 if better == "higher" else q1


def fingerprint() -> Dict[str, object]:
    """What a measurement depends on besides the code under test."""
    from repro.execcore import active_core
    from repro.instrument.covcore import active_backend

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "none"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "exec_core": active_core(),
        "cov_backend": active_backend(),
        "nproc": nproc,
        "platform": f"{sys.platform}-{platform.machine()}",
    }


def format_table(rows: Iterable[Tuple[str, str, float, Sequence[float]]]
                 ) -> str:
    """One line per metric: name, unit, reported value, median, spread, n."""
    lines = [f"  {'metric':38s} {'unit':>13s} {'value':>12s} "
             f"{'median':>12s} {'spread':>7s} {'n':>4s}"]
    for name, unit, value, values in rows:
        _, med, _ = quartiles(values)
        lines.append(f"  {name:38s} {unit:>13s} {value:12.5g} {med:12.5g} "
                     f"{spread(values):7.1%} {len(values):4d}")
    return "\n".join(lines)


def write_result(out_dir: str, doc: dict) -> str:
    """Store one run's result document; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    name = (f"{doc['workload']}-t{doc['trace']}-s{doc['seed']}-"
            f"{os.getpid()}.json")
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_results(location: str) -> List[dict]:
    """Every result document in a directory tree or a single file."""
    if os.path.isfile(location):
        paths = [location]
    else:
        paths = sorted(glob.glob(os.path.join(location, "**", "*.json"),
                                 recursive=True))
    docs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "workload" in doc and "metrics" in doc:
            docs.append(doc)
    return docs


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    """Judge ``new`` against ``base`` with the metric's regression bound.

    ``unresolved`` when either side's spread exceeds the bound, unless
    every new run beats every base run; otherwise ``worse`` when the new
    median is worse than the base median by more than ``bound``.
    """
    sign = 1.0 if better == "higher" else -1.0
    base_med = statistics.median(base)
    new_med = statistics.median(new)
    if max(spread(base), spread(new)) > bound:
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "within bound"
        return "unresolved"
    if base_med and sign * (new_med - base_med) / abs(base_med) < -bound:
        return "worse"
    return "within bound"


def compare(base_docs: List[dict], new_docs: List[dict],
            bounds: Dict[str, Tuple[str, float]]) -> List[str]:
    """Render the per-workload, per-metric comparison of two result sets."""
    lines = []
    workloads = sorted({d["workload"] for d in base_docs + new_docs
                        if d.get("trace") == 0})
    for workload in workloads:
        base = [d for d in base_docs
                if d["workload"] == workload and d.get("trace") == 0]
        new = [d for d in new_docs
               if d["workload"] == workload and d.get("trace") == 0]
        lines.append(workload)
        if not base or not new:
            lines.append("  missing on one side")
            continue
        prints = {json.dumps(d["fingerprint"], sort_keys=True)
                  for d in base + new}
        comparable = len(prints) == 1
        for metric, (better, bound) in bounds.items():
            a = [d["metrics"][metric]["value"] for d in base
                 if metric in d["metrics"]]
            b = [d["metrics"][metric]["value"] for d in new
                 if metric in d["metrics"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            if comparable:
                delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                tail = f"{delta:+7.1%}  {verdict(a, b, better, bound)}"
            else:
                tail = "incomparable"
            lines.append(
                f"  {metric:14s} A {qa[1]:10.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
                f" n={len(a):<3d} B {qb[1]:10.5g} [{qb[0]:.5g}, "
                f"{qb[2]:.5g}] n={len(b):<3d} {tail}")
    return lines


def bounds_from(benchmark: dict) -> Dict[str, Tuple[str, float]]:
    """metric -> (better, bound) from a BENCHMARK.json document."""
    return {m["name"]: (m["better"], float(m["bound"]))
            for m in benchmark["end_to_end"]}


def load_benchmark() -> dict:
    """The checkout's BENCHMARK.json."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        return json.load(fh)
