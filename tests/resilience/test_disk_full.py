"""The ``disk-full`` (ENOSPC) fault site across its two surfaces.

Injectable at image-store puts and checkpoint writes, with consistent
accounting in ``FuzzStats`` — and host-stream draws never perturbing
the campaign fault stream.
"""

import pytest

from repro.core.config import config_by_name
from repro.core.dedup import ImageStore
from repro.core.pmfuzz import build_engine
from repro.errors import StorageFaultError
from repro.resilience.faults import (FAULT_SITES, HOST_FAULT_SITES,
                                     SITE_GROUPS, EnvFaultInjector,
                                     FaultPlan)
from repro.workloads.registry import get_workload

PMFUZZ = config_by_name("pmfuzz")


class TestSiteRegistration:
    def test_disk_full_is_a_known_site_in_the_storage_group(self):
        assert "disk-full" in FAULT_SITES
        assert "disk-full" in SITE_GROUPS["storage"]

    def test_disk_full_is_the_only_host_stream_site(self):
        assert HOST_FAULT_SITES == ("disk-full",)

    def test_injected_error_reads_as_enospc(self):
        inj = EnvFaultInjector(FaultPlan.parse("disk-full:1.0"))
        with pytest.raises(StorageFaultError) as err:
            inj.check("disk-full")
        assert "no space left on device" in str(err.value)
        assert err.value.site == "disk-full"
        assert err.value.transient


class TestImageStoreSurface:
    def test_put_raises_typed_enospc(self):
        inj = EnvFaultInjector(FaultPlan.parse("disk-full:1.0"))
        store = ImageStore(env_faults=inj)
        image = get_workload("btree").create_image()
        with pytest.raises(StorageFaultError) as err:
            store.put(image)
        assert err.value.site == "disk-full"

    def test_campaign_counts_disk_full_and_survives(self):
        engine = build_engine("btree", PMFUZZ,
                              fault_plan="disk-full:0.3:2")
        stats = engine.run(1.0)
        assert stats.stop_reason
        assert stats.disk_full_faults > 0
        # Supervised retries absorb the fault: it is also accounted in
        # the general harness-fault tally.
        assert stats.harness_faults >= stats.disk_full_faults


class TestCheckpointSurface:
    def test_full_disk_skips_the_snapshot_not_the_campaign(self, tmp_path):
        ckpt = str(tmp_path / "c.ckpt")
        engine = build_engine("btree", PMFUZZ, checkpoint_path=ckpt)
        engine.setup()
        # Armed after setup: the seed-image save already happened, so
        # only the checkpoint surface draws (its own ImageStore kept no
        # injector reference).
        engine.env_faults = EnvFaultInjector(
            FaultPlan.parse("disk-full:1.0"))
        assert engine.checkpoint() == ""
        assert engine.stats.disk_full_faults == 1
        assert engine.checkpoint() == ""  # never escalates to a crash

    def test_prior_checkpoint_survives_a_failed_rotation(self, tmp_path):
        ckpt = str(tmp_path / "c.ckpt")
        engine = build_engine("btree", PMFUZZ, checkpoint_path=ckpt)
        engine.setup()
        path = engine.checkpoint()
        assert path
        # Arm the fault after a good snapshot exists.
        engine.env_faults = EnvFaultInjector(
            FaultPlan.parse("disk-full:1.0"))
        assert engine.checkpoint() == ""
        from repro.fuzz.engine import FuzzEngine
        resumed = FuzzEngine.resume(ckpt)  # prior snapshot still loads
        assert resumed.stats.workload_name == "btree"


class TestHostStreamIsolation:
    def test_host_draws_leave_campaign_stream_untouched(self):
        plan = FaultPlan.parse("exec-fault:0.5", seed=3)
        baseline = EnvFaultInjector(plan)
        expected = [baseline.should_fault("exec-fault") for _ in range(128)]

        armed = EnvFaultInjector(
            FaultPlan.parse("exec-fault:0.5,disk-full:0.5", seed=3))
        seq = []
        for _ in range(128):
            # Interleave host draws between campaign draws: the
            # campaign-class sequence must not shift.
            armed.should_fault_host("disk-full")
            seq.append(armed.should_fault("exec-fault"))
        assert seq == expected

    def test_getstate_roundtrip_covers_both_streams(self):
        inj = EnvFaultInjector(
            FaultPlan.parse("exec-fault:0.5,disk-full:0.5", seed=9))
        for _ in range(17):
            inj.should_fault("exec-fault")
            inj.should_fault_host("disk-full")
        state = inj.getstate()
        twin = EnvFaultInjector(
            FaultPlan.parse("exec-fault:0.5,disk-full:0.5", seed=9))
        twin.setstate(state)
        for _ in range(64):
            assert twin.should_fault("exec-fault") \
                == inj.should_fault("exec-fault")
            assert twin.should_fault_host("disk-full") \
                == inj.should_fault_host("disk-full")

    def test_legacy_three_tuple_state_still_loads(self):
        inj = EnvFaultInjector(FaultPlan.parse("exec-fault:0.5", seed=4))
        state = inj.getstate()
        legacy = state[:3]
        twin = EnvFaultInjector(FaultPlan.parse("exec-fault:0.5", seed=4))
        twin.setstate(legacy)
        assert [twin.should_fault("exec-fault") for _ in range(32)] \
            == [inj.should_fault("exec-fault") for _ in range(32)]
