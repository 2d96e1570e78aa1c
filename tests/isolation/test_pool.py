"""ForkWorkerPool: dispatch, batching, watchdog kills, death detection,
recycling."""

import os
import signal
import time

import pytest

from repro.errors import FuzzerError
from repro.isolation.pool import ForkWorkerPool, WatchdogExpired, WorkerDeath

from tests.isolation.doubles import ScriptedExecutor

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="requires os.fork")


@pytest.fixture
def make_pool():
    pools = []

    def _make(**kwargs):
        kwargs.setdefault("wall_timeout", 5.0)
        pool = ForkWorkerPool(ScriptedExecutor(), **kwargs)
        pools.append(pool)
        return pool

    yield _make
    for pool in pools:
        pool.close()


class TestDispatch:
    def test_submit_round_trips_a_job(self, make_pool):
        pool = make_pool()
        tag, payload, aux = pool.submit("raw", b"img", b"data", {})
        assert tag == "ok"
        assert payload == ("echo", b"img", b"data")

    def test_workers_are_forked_lazily(self, make_pool):
        pool = make_pool(workers=2)
        assert pool.live_workers == 0
        pool.submit("raw", b"", b"x", {})
        assert pool.live_workers == 1  # only the slot that got a job

    def test_round_robin_uses_every_worker(self, make_pool):
        pool = make_pool(workers=2)
        for i in range(4):
            pool.submit("raw", b"", b"job %d" % i, {})
        assert pool.spawned == 2
        assert pool.live_workers == 2

    def test_harness_error_crosses_the_pipe(self, make_pool):
        pool = make_pool()
        tag, payload, _ = pool.submit("raw", b"", b"boom", {})
        assert tag == "err"
        assert isinstance(payload, FuzzerError)
        # The worker that raised is still alive and serviceable.
        assert pool.submit("raw", b"", b"ok", {})[0] == "ok"

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ForkWorkerPool(ScriptedExecutor(), workers=0)


class TestBatch:
    def test_batch_replies_in_order(self, make_pool):
        pool = make_pool()
        jobs = [("raw", b"", b"job %d" % i, {}) for i in range(5)]
        replies = pool.submit_batch(jobs)
        assert [r[0] for r in replies] == ["ok"] * 5
        assert [r[1][2] for r in replies] == [j[2] for j in jobs]

    def test_batch_of_one_and_zero(self, make_pool):
        pool = make_pool()
        assert pool.submit_batch([]) == []
        replies = pool.submit_batch([("raw", b"", b"solo", {})])
        assert replies[0][0] == "ok"

    def test_reply_far_larger_than_the_pipe_buffer_is_intact(
            self, make_pool):
        """Both frames of a 4 MiB round-trip outgrow the 64 KiB pipe
        buffer many times over; every byte must come back in place."""
        pool = make_pool()
        images = [os.urandom(1 << 20) for _ in range(4)]
        jobs = [("raw", image, b"big %d" % i, {})
                for i, image in enumerate(images)]
        replies = pool.submit_batch(jobs)
        assert [r[1] for r in replies] == \
            [("echo", image, b"big %d" % i) for i, image in enumerate(images)]
        assert pool.submit("raw", b"", b"after", {})[0] == "ok"

    def test_worker_killed_while_writing_a_large_reply(self, make_pool):
        """A worker SIGKILLed halfway through its reply frame leaves a
        short frame and then EOF: a typed WorkerDeath, never a torn
        reply."""
        pool = make_pool()
        jobs = [("raw", os.urandom(1 << 20), b"fine", {}),
                ("raw", b"", b"tear", {})]
        with pytest.raises(WorkerDeath) as info:
            pool.submit_batch(jobs)
        assert "SIGKILL" in info.value.exit_detail
        assert pool.live_workers == 0
        assert pool.submit("raw", b"", b"again", {})[0] == "ok"

    def test_worker_death_mid_batch_is_typed_never_partial(self, make_pool):
        """A worker that dies midway through a batch yields WorkerDeath —
        not a short or corrupt reply list."""
        pool = make_pool()
        jobs = [("raw", b"", b"fine", {}), ("raw", b"", b"die", {}),
                ("raw", b"", b"never runs", {})]
        with pytest.raises(WorkerDeath):
            pool.submit_batch(jobs)
        assert pool.live_workers == 0
        # The pool recovers with a fresh worker.
        assert pool.submit("raw", b"", b"again", {})[0] == "ok"

    def test_externally_killed_worker_mid_batch(self, make_pool):
        pool = make_pool()
        pool.submit("raw", b"", b"warm up", {})
        os.kill(pool._workers[0].pid, signal.SIGKILL)
        with pytest.raises(WorkerDeath):
            pool.submit_batch([("raw", b"", b"a", {}),
                               ("raw", b"", b"b", {})])


class TestWatchdog:
    def test_hung_worker_is_killed_at_the_deadline(self, make_pool):
        pool = make_pool(wall_timeout=0.4)
        start = time.monotonic()
        with pytest.raises(WatchdogExpired) as info:
            pool.submit("raw", b"", b"hang", {})
        elapsed = time.monotonic() - start
        assert 0.3 <= elapsed < 5.0
        assert "SIGKILL" in info.value.exit_detail
        assert pool.live_workers == 0  # killed and reaped

    def test_pool_recovers_after_a_kill(self, make_pool):
        pool = make_pool(wall_timeout=0.4)
        with pytest.raises(WatchdogExpired):
            pool.submit("raw", b"", b"hang", {})
        tag, payload, _ = pool.submit("raw", b"after", b"the kill", {})
        assert tag == "ok"
        assert payload == ("echo", b"after", b"the kill")
        assert pool.spawned == 2


class TestWorkerDeath:
    def test_hard_exit_mid_job_is_detected(self, make_pool):
        pool = make_pool()
        with pytest.raises(WorkerDeath) as info:
            pool.submit("raw", b"", b"die", {})
        assert "status 3" in info.value.exit_detail \
            or "SIGKILL" in info.value.exit_detail
        assert pool.live_workers == 0

    def test_externally_killed_worker_is_detected(self, make_pool):
        pool = make_pool()
        pool.submit("raw", b"", b"warm up", {})
        worker = pool._workers[0]
        os.kill(worker.pid, signal.SIGKILL)
        with pytest.raises(WorkerDeath):
            pool.submit("raw", b"", b"to the corpse", {})
        assert pool.submit("raw", b"", b"fresh worker", {})[0] == "ok"


class TestLifecycle:
    def test_recycled_after_max_execs(self, make_pool):
        pool = make_pool(max_execs_per_worker=2)
        for i in range(4):
            assert pool.submit("raw", b"", b"job", {})[0] == "ok"
        assert pool.recycled == 2
        assert pool.spawned == 2
        assert pool.live_workers == 0  # the 4th job retired worker #2

    def test_close_reaps_everything_and_is_not_a_recycle(self, make_pool):
        pool = make_pool(workers=2)
        pool.submit("raw", b"", b"a", {})
        pool.submit("raw", b"", b"b", {})
        assert pool.live_workers == 2
        pool.close()
        assert pool.live_workers == 0
        assert pool.recycled == 0

    def test_pool_is_reusable_after_close(self, make_pool):
        pool = make_pool()
        pool.submit("raw", b"", b"x", {})
        pool.close()
        assert pool.submit("raw", b"", b"again", {})[0] == "ok"

    def test_no_zombie_children_left_behind(self, make_pool):
        pool = make_pool(wall_timeout=0.4)
        pool.submit("raw", b"", b"ok", {})
        with pytest.raises(WatchdogExpired):
            pool.submit("raw", b"", b"hang", {})
        pool.close()
        # Every child was waitpid()ed: a further wait finds nothing.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
