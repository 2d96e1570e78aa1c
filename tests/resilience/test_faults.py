"""Tests for the environment-fault plan and injector."""

import pytest

from repro.errors import (ExecTimeoutError, FuzzerError, HarnessFaultError,
                          StorageFaultError)
from repro.resilience.faults import (FAULT_SITES, SITE_GROUPS,
                                     EnvFaultInjector, FaultPlan, FaultSpec,
                                     as_fault_plan)


class TestFaultSpec:
    def test_valid_spec(self):
        spec = FaultSpec("storage-load", 0.05, burst=3)
        assert spec.site == "storage-load"
        assert spec.rate == 0.05
        assert spec.burst == 3

    def test_unknown_site_rejected(self):
        with pytest.raises(FuzzerError):
            FaultSpec("disk-on-fire", 0.1)

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(FuzzerError):
            FaultSpec("exec-fault", 1.5)
        with pytest.raises(FuzzerError):
            FaultSpec("exec-fault", -0.1)

    def test_burst_below_one_rejected(self):
        with pytest.raises(FuzzerError):
            FaultSpec("exec-fault", 0.1, burst=0)


class TestFaultPlanParse:
    def test_single_site(self):
        plan = FaultPlan.parse("storage-load:0.05")
        assert plan.specs == (FaultSpec("storage-load", 0.05),)

    def test_burst_field(self):
        plan = FaultPlan.parse("storage-load:0.05:3")
        assert plan.specs[0].burst == 3

    def test_comma_list(self):
        plan = FaultPlan.parse("storage-load:0.05:3,exec-fault:0.01")
        assert [s.site for s in plan.specs] == ["storage-load", "exec-fault"]

    def test_group_aliases_expand(self):
        assert {s.site for s in FaultPlan.parse("all:0.01").specs} \
            == set(FAULT_SITES)
        assert {s.site for s in FaultPlan.parse("storage:0.02").specs} \
            == set(SITE_GROUPS["storage"])
        assert {s.site for s in FaultPlan.parse("exec:0.02").specs} \
            == set(SITE_GROUPS["exec"])

    def test_malformed_specs_rejected(self):
        for bad in ("storage-load", "storage-load:0.1:2:9", "", "  ,  "):
            with pytest.raises(FuzzerError):
                FaultPlan.parse(bad)

    def test_non_numeric_rate_or_burst_rejected(self):
        # These must surface as FuzzerError (one-line CLI error, rc 2),
        # never as a bare ValueError traceback.
        for bad in ("storage-load:xx", "all:0.1:many", "exec-fault:0..1"):
            with pytest.raises(FuzzerError):
                FaultPlan.parse(bad)

    def test_as_fault_plan_coercion(self):
        assert as_fault_plan(None) is None
        plan = FaultPlan.parse("all:0.01")
        assert as_fault_plan(plan) is plan
        parsed = as_fault_plan("exec-hang:0.5", seed=7)
        assert parsed.specs[0].site == "exec-hang"
        assert parsed.seed == 7


class TestEnvFaultInjector:
    def test_deterministic_across_instances(self):
        plan = FaultPlan.parse("all:0.3", seed=11)
        a = EnvFaultInjector(plan)
        b = EnvFaultInjector(plan)
        seq = [a.should_fault("exec-fault") for _ in range(200)]
        assert seq == [b.should_fault("exec-fault") for _ in range(200)]
        assert a.fired == b.fired
        assert any(seq) and not all(seq)

    def test_unlisted_site_never_fires(self):
        inj = EnvFaultInjector(FaultPlan.parse("exec-hang:1.0"))
        assert not any(inj.should_fault("storage-load") for _ in range(50))
        assert inj.total_fired() == 0

    def test_burst_forces_consecutive_faults(self):
        inj = EnvFaultInjector(FaultPlan.parse("storage-load:1.0:4"))
        assert all(inj.should_fault("storage-load") for _ in range(4))
        assert inj.fired["storage-load"] == 4

    def test_check_raises_site_specific_errors(self):
        inj = EnvFaultInjector(FaultPlan.parse("all:1.0"))
        with pytest.raises(ExecTimeoutError):
            inj.check("exec-hang")
        with pytest.raises(HarnessFaultError) as err:
            inj.check("exec-fault")
        assert err.value.transient
        with pytest.raises(StorageFaultError):
            inj.check("storage-load")

    def test_check_silent_when_no_fault(self):
        inj = EnvFaultInjector(FaultPlan.parse("all:0.0"))
        for site in FAULT_SITES:
            inj.check(site)
        assert inj.total_fired() == 0

    def test_filter_bytes_truncates_or_flips(self):
        inj = EnvFaultInjector(FaultPlan.parse("storage-corrupt:1.0"))
        data = bytes(range(256)) * 8
        damaged = [inj.filter_bytes("storage-corrupt", data)
                   for _ in range(32)]
        assert all(d != data for d in damaged)
        assert any(len(d) < len(data) for d in damaged)  # truncation arm
        assert any(len(d) == len(data) for d in damaged)  # bit-flip arm

    def test_filter_bytes_passthrough_without_fault(self):
        inj = EnvFaultInjector(FaultPlan.parse("storage-corrupt:0.0"))
        data = b"pristine"
        assert inj.filter_bytes("storage-corrupt", data) == data

    def test_state_roundtrip_resumes_stream(self):
        plan = FaultPlan.parse("exec-fault:0.4", seed=3)
        inj = EnvFaultInjector(plan)
        for _ in range(37):
            inj.should_fault("exec-fault")
        state = inj.getstate()
        tail = [inj.should_fault("exec-fault") for _ in range(100)]
        fresh = EnvFaultInjector(plan)
        fresh.setstate(state)
        assert [fresh.should_fault("exec-fault") for _ in range(100)] == tail
        assert fresh.fired == inj.fired


class TestSiteGroupRegistry:
    """The group aliases must track FAULT_SITES automatically: adding a
    new site must flow into ``all:`` plans without anyone remembering to
    update a list."""

    def test_all_alias_is_the_fault_sites_tuple_itself(self):
        # Identity, not equality: "all" can never drift out of date.
        assert SITE_GROUPS["all"] is FAULT_SITES

    def test_all_plan_covers_every_site(self):
        covered = {s.site for s in FaultPlan.parse("all:0.5").specs}
        assert covered == set(FAULT_SITES)

    def test_host_sites_are_a_subset_of_fault_sites(self):
        from repro.resilience.faults import HOST_FAULT_SITES
        assert set(HOST_FAULT_SITES) <= set(FAULT_SITES)

    def test_every_group_expands_to_known_sites_only(self):
        for name, sites in SITE_GROUPS.items():
            assert set(sites) <= set(FAULT_SITES), name
            # Every alias must parse as a plan in its own right.
            parsed = {s.site for s in FaultPlan.parse(f"{name}:0.1").specs}
            assert parsed == set(sites), name

    def test_fault_sites_have_no_duplicates(self):
        assert len(FAULT_SITES) == len(set(FAULT_SITES))
