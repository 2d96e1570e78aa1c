"""Execution backends: selection, fallback, error taxonomy, triage."""

import os

import pytest

from repro.core.storage import TriageStore
from repro.errors import (ExecTimeoutError, FuzzerError, WorkerCrashError)
from repro.fuzz.executor import Executor
from repro.fuzz.stats import FuzzStats
from repro.isolation.backend import (ForkServerBackend, InProcessBackend,
                                     create_backend, fork_unavailable_reason)
from repro.workloads import get_workload
from repro.workloads.base import RunOutcome

from tests.isolation.doubles import ScriptedExecutor

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="requires os.fork")


class TestSelection:
    def test_none_gives_in_process(self):
        backend, fallback = create_backend("none", ScriptedExecutor())
        assert isinstance(backend, InProcessBackend)
        assert fallback == ""

    def test_default_is_in_process(self):
        backend, fallback = create_backend(None, ScriptedExecutor())
        assert isinstance(backend, InProcessBackend)
        assert fallback == ""

    def test_unknown_backend_rejected(self):
        with pytest.raises(FuzzerError, match="unknown isolation"):
            create_backend("docker", ScriptedExecutor())

    @needs_fork
    def test_fork_gives_fork_server(self):
        backend, fallback = create_backend("fork", ScriptedExecutor())
        try:
            assert isinstance(backend, ForkServerBackend)
            assert fallback == ""
        finally:
            backend.close()

    def test_fork_degrades_gracefully_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            "repro.isolation.backend.fork_unavailable_reason",
            lambda: "os.fork is unavailable on this platform")
        backend, fallback = create_backend("fork", ScriptedExecutor())
        assert isinstance(backend, InProcessBackend)
        assert "unavailable" in fallback
        # The degraded backend still executes.
        assert backend.run_raw_image(b"img", b"data")[0] == "echo"

    def test_fork_unavailable_reason_is_empty_where_fork_exists(self):
        if hasattr(os, "fork"):
            assert fork_unavailable_reason() == ""
        else:
            assert fork_unavailable_reason()


@needs_fork
class TestForkServerResults:
    def test_single_execution_matches_in_process(self):
        executor = Executor(lambda: get_workload("hashmap_tx"))
        image = get_workload("hashmap_tx").create_image()
        data = b"i 5 1\ni 9 2\ng 5\n"
        local = executor.run(image, data)
        backend = ForkServerBackend(executor)
        try:
            remote = backend.run(image, data)
        finally:
            backend.close()
        assert remote.outcome is local.outcome
        assert remote.cost == local.cost
        assert remote.commands_run == local.commands_run
        assert sorted(remote.pm_sparse) == sorted(local.pm_sparse)
        assert sorted(remote.branch_sparse) == sorted(local.branch_sparse)
        assert remote.sites_hit == local.sites_hit
        assert remote.final_image.content_hash() == \
            local.final_image.content_hash()

    def test_raw_image_path_matches_in_process(self):
        executor = Executor(lambda: get_workload("hashmap_tx"))
        local = executor.run_raw_image(b"\x00" * 300, b"g 1\n")
        backend = ForkServerBackend(executor)
        try:
            remote = backend.run_raw_image(b"\x00" * 300, b"g 1\n")
        finally:
            backend.close()
        assert remote.outcome is RunOutcome.INVALID_IMAGE
        assert remote.cost == local.cost
        assert remote.error == local.error

    def test_triggered_bugs_are_merged_back(self):
        executor = ScriptedExecutor()
        backend = ForkServerBackend(executor)
        try:
            backend.run_raw_image(b"", b"trigger")
        finally:
            backend.close()
        # The child recorded the trigger; the parent's injector sees it.
        assert "bug-1" in executor.injector.triggered


@needs_fork
class TestFailureTaxonomy:
    def test_watchdog_maps_to_exec_timeout(self, tmp_path):
        stats = FuzzStats()
        backend = ForkServerBackend(
            ScriptedExecutor(), wall_timeout=0.4,
            triage=TriageStore(str(tmp_path)), stats=stats)
        try:
            with pytest.raises(ExecTimeoutError) as info:
                backend.run_raw_image(b"the image", b"hang")
            assert info.value.site == "exec-hang"
            assert stats.watchdog_kills == 1
            bundles = TriageStore(str(tmp_path)).list_bundles()
            assert len(bundles) == 1
            bundle = TriageStore.load_bundle(bundles[0])
            assert bundle.meta["reason"] == "watchdog-timeout"
            assert bundle.data == b"hang"
            assert bundle.image_bytes == b"the image"
            assert stats.triage_bundles == 1
            # The backend keeps executing after the kill.
            assert backend.run_raw_image(b"", b"ok")[0] == "echo"
        finally:
            backend.close()

    def test_worker_death_maps_to_crash_error(self, tmp_path):
        stats = FuzzStats()
        backend = ForkServerBackend(
            ScriptedExecutor(), triage=TriageStore(str(tmp_path)),
            stats=stats)
        try:
            with pytest.raises(WorkerCrashError) as info:
                backend.run_raw_image(b"img", b"die")
            assert info.value.transient  # the supervisor will retry
            assert "status 3" in info.value.exit_detail
            assert stats.worker_crashes == 1
            bundle = TriageStore.load_bundle(
                TriageStore(str(tmp_path)).list_bundles()[0])
            assert bundle.meta["reason"] == "worker-death"
        finally:
            backend.close()

    def test_harness_error_reraised_verbatim(self):
        backend = ForkServerBackend(ScriptedExecutor())
        try:
            with pytest.raises(FuzzerError, match="scripted harness"):
                backend.run_raw_image(b"", b"boom")
        finally:
            backend.close()

    def test_without_triage_store_failures_still_map(self):
        stats = FuzzStats()
        backend = ForkServerBackend(ScriptedExecutor(), wall_timeout=0.4,
                                    stats=stats)
        try:
            with pytest.raises(ExecTimeoutError):
                backend.run_raw_image(b"", b"hang")
            assert stats.watchdog_kills == 1
            assert stats.triage_bundles == 0
        finally:
            backend.close()


@needs_fork
class TestDescribe:
    def test_describe_records_the_configuration(self, tmp_path):
        backend = ForkServerBackend(
            ScriptedExecutor(), workers=3, wall_timeout=7.5,
            rss_limit_bytes=1 << 28, max_execs_per_worker=64,
            triage=TriageStore(str(tmp_path)))
        try:
            desc = backend.describe()
        finally:
            backend.close()
        assert desc == {
            "backend": "fork",
            "workers": 3,
            "wall_timeout": 7.5,
            "rss_limit_bytes": 1 << 28,
            "max_execs_per_worker": 64,
            "triage_dir": str(tmp_path),
            "batch_execs": 8,
        }

    def test_in_process_describe(self):
        assert InProcessBackend(ScriptedExecutor()).describe() == \
            {"backend": "none"}


@needs_fork
class TestBackendBatching:
    @pytest.fixture
    def make_backend(self):
        backends = []

        def _make(**kwargs):
            kwargs.setdefault("wall_timeout", 5.0)
            backend = ForkServerBackend(ScriptedExecutor(), **kwargs)
            backends.append(backend)
            return backend

        yield _make
        for backend in backends:
            backend.close()

    def test_planned_jobs_ship_as_one_dispatch(self, make_backend):
        backend = make_backend(batch_execs=4)
        jobs = [("raw", b"", b"job %d" % i, {}) for i in range(4)]
        backend.plan(jobs)
        for kind, image, data, kwargs in jobs:
            result = backend.run_raw_image(image, data)
            assert result == ("echo", image, data)
        # One batch dispatch covered all four planned jobs.
        assert backend.pool._workers[0].execs == 4
        assert backend.pool.spawned == 1

    def test_unplanned_job_passes_through_keeping_speculation(
            self, make_backend):
        backend = make_backend(batch_execs=4)
        jobs = [("raw", b"", b"child %d" % i, {}) for i in range(3)]
        backend.plan(jobs)
        assert backend.run_raw_image(b"", b"child 0")[1] == b""
        # An interleaved re-execution (not in the plan) must not drop
        # the parked replies for children 1 and 2.
        assert backend.run_raw_image(b"", b"reexec")[2] == b"reexec"
        assert backend.run_raw_image(b"", b"child 1")[2] == b"child 1"
        assert backend.run_raw_image(b"", b"child 2")[2] == b"child 2"

    def test_discard_plan_drops_speculation(self, make_backend):
        backend = make_backend(batch_execs=4)
        backend.plan([("raw", b"", b"a", {}), ("raw", b"", b"b", {})])
        backend.run_raw_image(b"", b"a")
        backend.discard_plan()
        assert not backend._pending and not backend._plan

    def test_worker_death_in_batch_maps_to_worker_crash_error(
            self, make_backend):
        backend = make_backend(batch_execs=4)
        backend.plan([("raw", b"", b"die", {}), ("raw", b"", b"next", {})])
        with pytest.raises(WorkerCrashError):
            backend.run_raw_image(b"", b"die")
        # Taxonomy intact: the next run gets a fresh worker and succeeds.
        assert backend.run_raw_image(b"", b"next")[2] == b"next"

    def test_batch_execs_one_disables_batching(self, make_backend):
        backend = make_backend(batch_execs=1)
        jobs = [("raw", b"", b"j%d" % i, {}) for i in range(3)]
        backend.plan(jobs)
        for _, image, data, _ in jobs:
            backend.run_raw_image(image, data)
        assert backend.pool._workers[0].execs == 3  # three single dispatches
        assert not backend._pending
