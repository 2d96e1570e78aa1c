"""Repeated worker-crash escalation: strikes → quarantine → checkpoint.

Satellite invariant: K consecutive :class:`WorkerCrashError` deaths on
the same test case trip the supervisor's quarantine (the campaign stops
re-feeding a worker-killing input), and the quarantine state — counter
and entry set — survives checkpoint/resume.
"""

import pytest

from repro.core.config import config_by_name
from repro.core.pmfuzz import build_engine
from repro.errors import WorkerCrashError
from repro.fuzz.executor import Executor
from repro.fuzz.stats import FuzzStats
from repro.resilience.checkpoint import resume_campaign
from repro.resilience.supervisor import SupervisedExecutor
from repro.workloads.base import RunOutcome
from repro.workloads.registry import get_workload


class CrashingBackend:
    """Every dispatched execution loses its worker."""

    def __init__(self):
        self.calls = 0

    def run(self, image, data, **kwargs):
        self.calls += 1
        raise WorkerCrashError(exit_detail="killed by signal 9")

    def run_raw_image(self, image_bytes, data, **kwargs):
        return self.run(None, data)


@pytest.fixture
def supervised():
    executor = Executor(lambda: get_workload("btree"))
    backend = CrashingBackend()
    stats = FuzzStats()
    sup = SupervisedExecutor(executor, stats=stats, max_retries=2,
                             quarantine_threshold=3, backend=backend)
    return sup, backend, stats


class TestEscalation:
    def test_k_consecutive_deaths_trip_quarantine(self, supervised):
        sup, backend, stats = supervised
        image = get_workload("btree").create_image()
        for _ in range(3):
            result = sup.run(image, b"i 1 1\n", image_id="img-a")
            assert result.outcome is RunOutcome.HARNESS_FAULT
        assert sup.is_quarantined("img-a", b"i 1 1\n")
        assert stats.quarantined == 1
        # Each pre-quarantine run burned 1 attempt + max_retries retries.
        assert backend.calls == 3 * 3
        assert stats.retries == 3 * 2
        assert stats.harness_faults == 3 * 3

    def test_quarantined_input_short_circuits(self, supervised):
        sup, backend, stats = supervised
        image = get_workload("btree").create_image()
        for _ in range(3):
            sup.run(image, b"i 1 1\n", image_id="img-a")
        calls_at_quarantine = backend.calls
        result = sup.run(image, b"i 1 1\n", image_id="img-a")
        assert result.outcome is RunOutcome.HARNESS_FAULT
        assert "quarantined" in result.error
        assert backend.calls == calls_at_quarantine  # worker untouched
        assert stats.quarantined == 1  # not double-counted

    def test_other_inputs_keep_their_own_strike_counts(self, supervised):
        sup, _, stats = supervised
        image = get_workload("btree").create_image()
        sup.run(image, b"i 1 1\n", image_id="img-a")
        sup.run(image, b"i 2 2\n", image_id="img-a")
        assert not sup.is_quarantined("img-a", b"i 1 1\n")
        assert not sup.is_quarantined("img-a", b"i 2 2\n")
        assert stats.quarantined == 0


class TestQuarantineSurvivesCheckpoint:
    def test_counter_and_entries_survive_resume(self, tmp_path):
        ckpt = str(tmp_path / "c.ckpt")
        engine = build_engine("btree", config_by_name("pmfuzz"),
                              checkpoint_path=ckpt)
        engine.setup()
        backend = CrashingBackend()
        engine.supervisor.backend = backend
        image = engine.storage.load(engine._seed_image_id)
        for _ in range(engine.supervisor.quarantine_threshold):
            engine.supervisor.run(image, b"i 9 9\n",
                                  image_id=engine._seed_image_id)
        assert engine.supervisor.is_quarantined(engine._seed_image_id,
                                                b"i 9 9\n")
        assert engine.stats.quarantined == 1
        engine.checkpoint()

        resumed = resume_campaign(ckpt)
        assert resumed.supervisor.is_quarantined(engine._seed_image_id,
                                                 b"i 9 9\n")
        assert resumed.stats.quarantined == 1
        # The restored quarantine still short-circuits executions.
        result = resumed.supervisor.run(image, b"i 9 9\n",
                                        image_id=engine._seed_image_id)
        assert result.outcome is RunOutcome.HARNESS_FAULT
        assert "quarantined" in result.error
        assert resumed.stats.quarantined == 1
