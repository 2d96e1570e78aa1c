"""Tests for the instrumented executor and cost model."""

import pytest

from repro.errors import ExecTimeoutError, HarnessFaultError
from repro.fuzz.executor import CostModel, Executor
from repro.pmdk.tx import MAX_LOG_ENTRIES, EntryKind, TransactionLog, TxStage
from repro.resilience.faults import EnvFaultInjector, FaultPlan
from repro.workloads import get_workload
from repro.workloads.base import RunOutcome


def make_executor(name="hashmap_tx", **kwargs):
    return Executor(lambda: get_workload(name), **kwargs)


class TestExecution:
    def test_basic_run_collects_everything(self):
        ex = make_executor()
        image = get_workload("hashmap_tx").create_image()
        result = ex.run(image, b"i 5 1\ng 5\n")
        assert result.outcome is RunOutcome.OK
        assert result.pm_sparse, "no PM coverage collected"
        assert result.branch_sparse, "no branch coverage collected"
        assert result.sites_hit
        assert result.final_image is not None
        assert result.cost > 0

    def test_command_cap_enforced(self):
        ex = make_executor(max_commands=3)
        image = get_workload("hashmap_tx").create_image()
        result = ex.run(image, b"g 1\n" * 50)
        assert result.commands_run == 3

    def test_determinism(self):
        ex = make_executor()
        image = get_workload("hashmap_tx").create_image()
        a = ex.run(image, b"i 5 1\ni 9 2\n")
        b = ex.run(image, b"i 5 1\ni 9 2\n")
        assert a.final_image.content_hash() == b.final_image.content_hash()
        assert sorted(a.pm_sparse) == sorted(b.pm_sparse)

    def test_raw_image_garbage_is_invalid(self):
        ex = make_executor()
        result = ex.run_raw_image(b"\x00" * 300, b"g 1\n")
        assert result.outcome is RunOutcome.INVALID_IMAGE
        assert result.cost > 0

    def test_raw_image_valid_bytes_execute(self):
        ex = make_executor()
        image = get_workload("hashmap_tx").create_image()
        result = ex.run_raw_image(image.to_bytes(), b"i 5 1\n")
        assert result.outcome is RunOutcome.OK


class _CountingFaults:
    """Records which fault sites are consulted, never fires."""

    def __init__(self):
        self.checks = []

    def check(self, site):
        self.checks.append(site)


class TestRawImageContainment:
    """Hostile image bytes must never escape as raw exceptions."""

    def test_deserializer_crash_is_contained(self, monkeypatch):
        def hostile(_image_bytes):
            raise RuntimeError("deserializer blew up on attacker bytes")

        monkeypatch.setattr("repro.fuzz.executor.PMImage.from_bytes",
                            hostile)
        ex = make_executor()
        result = ex.run_raw_image(b"\xff" * 64, b"g 1\n")
        assert result.outcome is RunOutcome.HARNESS_FAULT
        assert "RuntimeError" in result.error
        assert result.cost > 0  # the aborted execution is still charged

    def test_injected_hang_guards_raw_image_path(self):
        ex = make_executor(
            env_faults=EnvFaultInjector(FaultPlan.parse("exec-hang:1.0")))
        with pytest.raises(ExecTimeoutError):
            ex.run_raw_image(b"\x00" * 300, b"g 1\n")

    def test_injected_fault_guards_raw_image_path(self):
        ex = make_executor(
            env_faults=EnvFaultInjector(FaultPlan.parse("exec-fault:1.0")))
        with pytest.raises(HarnessFaultError):
            ex.run_raw_image(b"\x00" * 300, b"g 1\n")

    def test_fault_sites_drawn_exactly_once_per_raw_run(self):
        # run_raw_image delegates to run() after validating the image;
        # the exec fault sites must not be consulted a second time, or
        # the injected-fault RNG stream would diverge from plain run().
        ex = make_executor()
        ex.env_faults = _CountingFaults()
        image = get_workload("hashmap_tx").create_image()
        result = ex.run_raw_image(image.to_bytes(), b"i 5 1\n")
        assert result.outcome is RunOutcome.OK
        assert ex.env_faults.checks == ["exec-hang", "exec-fault"]

    def test_fault_sites_consulted_before_image_validation(self):
        ex = make_executor(
            env_faults=EnvFaultInjector(FaultPlan.parse("exec-hang:1.0")))
        # Even garbage bytes raise the env fault first: the fork server
        # can die before ever looking at its input.
        with pytest.raises(ExecTimeoutError):
            ex.run_raw_image(b"", b"")


def _corrupt_undo_log(stage, n_entries, alloc_target=None):
    """A hashmap_tx seed image whose undo-log header is overwritten."""
    from repro.pmdk.pool import _LOG_OFF

    image = get_workload("hashmap_tx").create_image()
    payload = image.payload
    payload[_LOG_OFF] = stage
    payload[_LOG_OFF + 8:_LOG_OFF + 16] = n_entries.to_bytes(8, "little")
    if alloc_target is not None:
        entry = _LOG_OFF + TransactionLog.HEADER_SIZE
        payload[entry] = int(EntryKind.ALLOC)
        payload[entry + 1] = 1  # valid
        payload[entry + 8:entry + 16] = alloc_target.to_bytes(8, "little")
        payload[entry + 16:entry + 24] = (64).to_bytes(8, "little")
    return image


class TestCorruptUndoLogContainment:
    """A corrupt undo log is a program outcome, never a harness fault."""

    def test_wild_alloc_entry_in_recovery_segfaults(self):
        # Recovery faults inside PmemObjPool.open, before any pool
        # exists.
        image = _corrupt_undo_log(TxStage.WORK, 1, alloc_target=10 ** 12)
        result = make_executor().run(image, b"i 5 1\n")
        assert result.outcome is RunOutcome.SEGFAULT
        assert "SegmentationFault" in result.error

    def test_out_of_range_stage_byte_is_an_invalid_image(self):
        image = _corrupt_undo_log(7, 0)
        result = make_executor().run(image, b"i 5 1\n")
        assert result.outcome is RunOutcome.INVALID_IMAGE
        assert "stage 7" in result.error

    def test_huge_entry_count_stays_an_error(self):
        image = _corrupt_undo_log(TxStage.WORK, MAX_LOG_ENTRIES << 40)
        result = make_executor().run(image, b"i 5 1\n")
        assert result.outcome is RunOutcome.ERROR
        assert "outside domain" in result.error


class TestCostModel:
    def test_sysopt_cheaper_than_ssd(self):
        fast = CostModel(sys_opt=True)
        slow = CostModel(sys_opt=False)
        assert fast.image_io(256 * 1024) < slow.image_io(256 * 1024)

    def test_cost_grows_with_commands(self):
        m = CostModel()
        assert m.execution(10, 0, 0) > m.execution(1, 0, 0)

    def test_cost_grows_with_fences(self):
        m = CostModel()
        assert m.execution(1, 100, 0) > m.execution(1, 0, 0)

    def test_aborted_cheaper_than_full(self):
        m = CostModel(sys_opt=False)
        assert m.aborted_execution(1000) < m.execution(10, 50, 1000)
