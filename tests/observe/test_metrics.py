"""Metrics registry: determinism classes, snapshot/restore."""

import pytest

from repro.observe.metrics import (Counter, Gauge, Histogram,
                                   MetricsRegistry)


class TestMetricTypes:
    def test_counter(self):
        c = Counter("execs")
        c.inc()
        c.inc(3)
        assert c.snapshot() == 4

    def test_gauge_set_and_add(self):
        g = Gauge("depth")
        g.set(5)
        g.add(2.5)
        assert g.snapshot() == 7.5

    def test_histogram_buckets_and_overflow(self):
        h = Histogram("cost", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["counts"] == [1, 1, 1]
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(101.0)

    def test_histogram_boundary_lands_in_lower_bucket(self):
        h = Histogram("cost", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.snapshot()["counts"] == [1, 0, 0]


class TestRegistry:
    def test_register_once_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="already registered as"):
            reg.gauge("a")

    def test_determinism_class_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="host_dependent"):
            reg.counter("a", host_dependent=True)

    def test_snapshot_separates_determinism_classes(self):
        reg = MetricsRegistry()
        reg.counter("det").inc(2)
        reg.gauge("wall", host_dependent=True).set(1.5)
        assert reg.snapshot() == {"det": 2}
        assert reg.snapshot(host_dependent=True) == {"wall": 1.5}

    def test_snapshot_is_key_sorted(self):
        reg = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            reg.counter(name)
        assert list(reg.snapshot()) == ["alpha", "mid", "zeta"]

    def test_restore_reloads_registered_and_ignores_unknown(self):
        reg = MetricsRegistry()
        reg.counter("known")
        reg.gauge("wall", host_dependent=True)
        reg.restore({"known": 7, "retired_metric": 99}, {"wall": 2.5})
        assert reg.snapshot() == {"known": 7}
        assert reg.snapshot(host_dependent=True) == {"wall": 2.5}

    def test_restore_histogram_roundtrip(self):
        reg = MetricsRegistry()
        h = reg.histogram("cost", buckets=(1.0,))
        h.observe(0.5)
        snap = reg.snapshot()

        fresh = MetricsRegistry()
        fresh.histogram("cost", buckets=(1.0,))
        fresh.restore(snap)
        assert fresh.snapshot() == snap
