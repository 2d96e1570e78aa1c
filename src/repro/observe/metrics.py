"""The campaign metrics registry: counters, gauges, histograms.

Prometheus-shaped but process-local: each metric is registered once by
name, updated from the hot loop with plain attribute arithmetic, and
snapshotted into :class:`~repro.fuzz.stats.FuzzStats` so it survives
checkpoint/resume.

Two determinism classes, enforced at registration:

* **deterministic** metrics (the default) are pure functions of the
  seeded campaign — executions, per-stage *virtual* time,
  mutation-operator effectiveness, queue depth, coverage-map density.
  They land in ``FuzzStats.metrics`` and are part of the
  ``comparable()`` equivalence contracts (fork/none, trace on/off,
  kill/resume).
* **host-dependent** metrics — anything touching the wall clock — land
  in ``FuzzStats.metrics_host``, which ``comparable()`` excludes.

Snapshots are plain nested dicts (JSON-friendly, so ``status.json`` can
carry them verbatim).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: Default histogram bucket upper bounds (seconds of virtual time —
#: execution costs cluster in the 1e-3..1e-1 band of the cost model).
DEFAULT_BUCKETS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0)


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "host_dependent", "value")

    def __init__(self, name: str, host_dependent: bool = False) -> None:
        self.name = name
        self.host_dependent = host_dependent
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self):
        return self.value

    def restore(self, snap) -> None:
        self.value = snap

    def merge(self, snap) -> None:
        self.value += snap


class Gauge:
    """Last-set value."""

    __slots__ = ("name", "host_dependent", "value")

    def __init__(self, name: str, host_dependent: bool = False) -> None:
        self.name = name
        self.host_dependent = host_dependent
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)

    def snapshot(self):
        return self.value

    def restore(self, snap) -> None:
        self.value = snap

    def merge(self, snap) -> None:
        self.value += snap


class Histogram:
    """Fixed-bucket histogram with count and sum."""

    __slots__ = ("name", "host_dependent", "buckets", "counts", "count",
                 "sum")

    def __init__(self, name: str, host_dependent: bool = False,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.host_dependent = host_dependent
        self.buckets = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)  # +overflow
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def snapshot(self):
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "count": self.count, "sum": self.sum}

    def restore(self, snap) -> None:
        self.buckets = tuple(snap["buckets"])
        self.counts = list(snap["counts"])
        self.count = snap["count"]
        self.sum = snap["sum"]

    def merge(self, snap) -> None:
        if tuple(snap["buckets"]) != self.buckets:
            raise ValueError(f"histogram {self.name!r}: bucket mismatch")
        self.counts = [a + b for a, b in zip(self.counts, snap["counts"])]
        self.count += snap["count"]
        self.sum += snap["sum"]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Register-once metric store with deterministic snapshots."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def _register(self, kind: str, name: str, host_dependent: bool,
                  **kwargs):
        existing = self._metrics.get(name)
        cls = _KINDS[kind]
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__.lower()}, not {kind}")
            if existing.host_dependent != host_dependent:
                raise ValueError(
                    f"metric {name!r} already registered with "
                    f"host_dependent={existing.host_dependent}")
            return existing
        metric = cls(name, host_dependent=host_dependent, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, host_dependent: bool = False) -> Counter:
        return self._register("counter", name, host_dependent)

    def gauge(self, name: str, host_dependent: bool = False) -> Gauge:
        return self._register("gauge", name, host_dependent)

    def histogram(self, name: str, host_dependent: bool = False,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register("histogram", name, host_dependent,
                              buckets=buckets)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # ------------------------------------------------------------------
    # Snapshot / restore / merge
    # ------------------------------------------------------------------
    def snapshot(self, host_dependent: bool = False) -> dict:
        """Key-sorted snapshot of one determinism class."""
        return {
            name: metric.snapshot()
            for name, metric in sorted(self._metrics.items())
            if metric.host_dependent == host_dependent
        }

    def restore(self, deterministic: Optional[dict],
                host: Optional[dict] = None) -> None:
        """Reload registered metrics from checkpoint snapshots.

        Snapshot keys with no registered metric are ignored (an old
        checkpoint may carry metrics this build no longer registers).
        """
        for snap in (deterministic or {}), (host or {}):
            for name, value in snap.items():
                metric = self._metrics.get(name)
                if metric is not None:
                    metric.restore(value)
