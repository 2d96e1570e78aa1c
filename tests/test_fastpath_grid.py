"""The fast-path equivalence grid: the ``sys.monitoring`` coverage
backend and the warm-open pool cache are indistinguishable from the
reference configuration.

Contract under test:

* identical edge maps — both coverage backends hash the same
  ``file:line`` locations through the same edge encoding;
* byte-identical crash images and ``FuzzStats.comparable()``-identical
  campaigns across {settrace, monitoring} x {warm, cold open} x
  {isolation none, fork};
* neither the backend nor the cache is a stats field, and the cache's
  hit/miss counters never leak into ``comparable()``.

No flag or engine option selects these paths: the platform picks the
backend and the cache is always on.  The grid reaches the other cells
through test seams — :func:`~repro.instrument.covcore.set_backend` pins
the backend, and an executor without a cache opens every pool cold.

Monitoring cells skip where ``sys.monitoring`` is absent (py < 3.12);
the warm/cold dimension runs everywhere.  A separate subprocess test
(:class:`TestCrossInterpreter`) proves settrace-vs-monitoring equality
on hosts where a PEP-669 interpreter is installed alongside.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.core.config import PMFUZZ
from repro.core.pmfuzz import build_engine
from repro.fuzz.rng import DeterministicRandom
from repro.instrument.branchcov import (BranchCoverage,
                                        MonitoringBranchCoverage)
from repro.instrument.covcore import (DEFAULT_BACKEND, HAVE_MONITORING,
                                      TOOL_NAME, active_backend, set_backend)

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="requires os.fork")
needs_monitoring = pytest.mark.skipif(
    not HAVE_MONITORING, reason="sys.monitoring needs python >= 3.12")

BACKENDS = ("settrace", "monitoring") if HAVE_MONITORING else ("settrace",)


@pytest.fixture(autouse=True)
def restore_backend():
    """The coverage backend is process-global; leave it as we found it."""
    yield
    set_backend(None)


def run_solo(backend, warm, isolation, tmp_path, name):
    """One grid cell: ``backend`` pinned, the cache on or off."""
    kwargs = {}
    if isolation == "fork":
        kwargs["triage_dir"] = str(tmp_path / name / "triage")
    if backend is not None:
        set_backend(backend)
    engine = build_engine(
        "hashmap_tx", PMFUZZ,
        rng=DeterministicRandom(7).fork("hashmap_tx/grid"),
        isolation=isolation, **kwargs)
    if backend is not None:
        assert active_backend() == backend
    if not warm:
        # The fork pool and the supervisor share this executor object,
        # so clearing its cache before the run makes every open cold.
        engine.executor.warm_cache = None
    stats = engine.run(0.4)
    queue = sorted((e.data, e.image_id) for e in engine.queue.entries)
    images = {image_id: engine.storage.store.peek(image_id)
              for _, image_id in queue if image_id}
    return stats, queue, images


def assert_cell_equal(ref_run, other_run):
    r_stats, r_queue, r_images = ref_run
    o_stats, o_queue, o_images = other_run
    assert o_stats.comparable() == r_stats.comparable()
    assert o_stats.metrics == r_stats.metrics
    assert o_queue == r_queue
    assert r_stats.executions > 0
    # Byte-identical crash images: same ids AND same stored bytes.
    assert set(o_images) == set(r_images)
    for image_id, blob in r_images.items():
        assert o_images[image_id] == blob


class TestSoloGridSmoke:
    """Tier-1 cells against the (settrace, warm off) reference."""

    def test_warm_open_in_process(self, tmp_path):
        cold = run_solo("settrace", False, "none", tmp_path, "c")
        warm = run_solo("settrace", True, "none", tmp_path, "w")
        assert_cell_equal(cold, warm)

    @needs_fork
    def test_warm_open_fork(self, tmp_path):
        cold = run_solo("settrace", False, "fork", tmp_path, "c")
        warm = run_solo("settrace", True, "fork", tmp_path, "w")
        assert_cell_equal(cold, warm)

    @needs_monitoring
    def test_monitoring_backend(self, tmp_path):
        ref = run_solo("settrace", False, "none", tmp_path, "s")
        mon = run_solo("monitoring", True, "none", tmp_path, "m")
        assert_cell_equal(ref, mon)


@pytest.mark.slow
class TestSoloGridFull:
    @pytest.mark.parametrize("isolation", [
        "none", pytest.param("fork", marks=needs_fork)])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cell(self, tmp_path, backend, warm, isolation):
        ref = run_solo("settrace", False, "none", tmp_path, "ref")
        cell = run_solo(backend, warm, isolation, tmp_path, "cell")
        assert_cell_equal(ref, cell)


class TestBackendSelection:
    def test_default_prefers_monitoring(self):
        if HAVE_MONITORING:
            assert DEFAULT_BACKEND == "monitoring"
        else:
            assert DEFAULT_BACKEND == "settrace"
            assert set_backend(None) == DEFAULT_BACKEND

    def test_engine_records_backend_outside_stats(self, tmp_path):
        set_backend("settrace")
        engine = build_engine("hashmap_tx", PMFUZZ)
        # Building an engine neither selects nor resets the backend.
        assert active_backend() == "settrace"
        assert type(engine.executor._branch_cov) is BranchCoverage
        stats, _, _ = run_solo(None, True, "none", tmp_path, "s")
        # The backend must never leak into the determinism contract.
        assert "cov_backend" not in stats.comparable()
        assert not hasattr(stats, "cov_backend")
        assert "cov_backend" not in engine.campaign_meta["engine_kwargs"]

    @needs_monitoring
    def test_foreign_coverage_tool_falls_back_to_settrace(self, tmp_path):
        """Another tool holding ``COVERAGE_ID`` (a coverage tool, a
        debugger) makes the campaign run on settrace, with the same
        results, instead of failing."""
        mon = sys.monitoring
        set_backend(None)
        reference = run_solo(None, True, "none", tmp_path, "ref")
        holder = mon.get_tool(mon.COVERAGE_ID)
        if holder == TOOL_NAME:  # an earlier recorder here claimed it
            mon.free_tool_id(mon.COVERAGE_ID)
            MonitoringBranchCoverage._tool_claimed = False
        elif holder is not None:
            pytest.skip(f"COVERAGE_ID is held by {holder!r}")
        mon.use_tool_id(mon.COVERAGE_ID, "dummy-coverage-tool")
        try:
            assert active_backend() == "settrace"
            engine = build_engine("hashmap_tx", PMFUZZ)
            assert type(engine.executor._branch_cov) is BranchCoverage
            fallback = run_solo(None, True, "none", tmp_path, "fallback")
        finally:
            mon.free_tool_id(mon.COVERAGE_ID)
            # The next monitoring recorder claims the slot afresh.
            mon.restart_events()
        assert active_backend() == "monitoring"
        assert_cell_equal(reference, fallback)

    def test_warm_cache_counters_outside_stats(self, tmp_path):
        stats, _, _ = run_solo("settrace", True, "none", tmp_path, "s")
        for field in ("warm_hits", "warm_misses", "warm_bypasses"):
            assert field not in stats.comparable()

    def test_unknown_backend_rejected(self):
        with pytest.raises(Exception):
            set_backend("dtrace")

    @pytest.mark.skipif(HAVE_MONITORING,
                        reason="error path needs an interpreter without "
                               "sys.monitoring")
    def test_monitoring_unavailable_rejected(self):
        with pytest.raises(Exception, match="PEP 669"):
            set_backend("monitoring")


#: A script run under both interpreters: a tiny deterministic campaign
#: whose stats + stored image ids are printed as JSON for comparison.
_CROSS_SCRIPT = """
import json, sys
from repro.core.config import PMFUZZ
from repro.core.pmfuzz import build_engine
from repro.fuzz.rng import DeterministicRandom
from repro.instrument.covcore import active_backend

from repro.instrument.covcore import set_backend

set_backend(sys.argv[1])
engine = build_engine("hashmap_tx", PMFUZZ,
                      rng=DeterministicRandom(7).fork("hashmap_tx/grid"))
stats = engine.run(0.4)
queue = sorted((e.data.hex(), e.image_id) for e in engine.queue.entries)
print(json.dumps({"backend": active_backend(),
                  "comparable": stats.comparable(),
                  "queue": queue}, sort_keys=True,
                 default=lambda o: sorted(o) if isinstance(o, (set, frozenset))
                 else str(o)))
"""


def _other_python():
    """A second interpreter that has sys.monitoring, if installed."""
    if HAVE_MONITORING:
        return None  # this interpreter already covers the monitoring side
    for name in ("python3.13", "python3.12"):
        path = shutil.which(name)
        if path:
            return path
    return None


class TestCrossInterpreter:
    """settrace (here) vs monitoring (subprocess on py3.12+)."""

    @pytest.mark.skipif(_other_python() is None and not HAVE_MONITORING,
                        reason="no PEP-669 interpreter available")
    def test_campaign_equal_across_backends(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)

        def run(python, backend):
            proc = subprocess.run(
                [python, "-c", _CROSS_SCRIPT, backend],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        ref = run(sys.executable, "settrace")
        mon_python = sys.executable if HAVE_MONITORING else _other_python()
        mon = run(mon_python, "monitoring")
        assert mon["backend"] == "monitoring"
        assert ref["backend"] == "settrace"
        assert mon["comparable"] == ref["comparable"]
        assert mon["queue"] == ref["queue"]
