"""Fault-injection soak: campaigns survive a hostile environment.

The fast test pins the ISSUE acceptance criterion at miniature scale;
the ``slow``-marked soaks (excluded from tier 1 by the default
``-m 'not slow'`` selection; run them with ``pytest -m slow``) push
every fault site at 1 % across workloads and configurations.
"""

import pytest

from repro.core.pmfuzz import run_campaign


class TestFaultAbsorption:
    def test_one_percent_faults_campaign_completes(self):
        """Acceptance criterion: all sites at 1 %, nonzero faults
        absorbed, PM-path coverage within noise of the fault-free run."""
        faulted = run_campaign("hashmap_tx", "pmfuzz", 1.0, seed=42,
                               fault_plan="all:0.01")
        clean = run_campaign("hashmap_tx", "pmfuzz", 1.0, seed=42)
        assert faulted.stop_reason == "budget"
        assert faulted.harness_faults > 0
        assert faulted.retries > 0
        # Recovered faults never touch the campaign RNG, but their
        # virtual time costs executions, so coverage only stays within
        # noise of the fault-free campaign. It is not exact: the two
        # read 98 and 98 from one checkout directory and 91 and 106
        # from another, since branch IDs hash the source path.
        assert faulted.final_pm_paths >= 0.9 * clean.final_pm_paths

    def test_faults_cost_virtual_time(self):
        """Resilience has an honest price: the faulted campaign gets
        slightly fewer executions out of the same virtual budget."""
        faulted = run_campaign("hashmap_tx", "pmfuzz", 1.0, seed=42,
                               fault_plan="exec-hang:0.02")
        clean = run_campaign("hashmap_tx", "pmfuzz", 1.0, seed=42)
        assert faulted.timeouts > 0
        assert faulted.executions < clean.executions


@pytest.mark.slow
class TestFaultSoak:
    @pytest.mark.parametrize("workload", ["hashmap_tx", "btree", "rbtree"])
    def test_soak_every_site_every_workload(self, workload):
        # A tight hang timeout keeps the virtual-time price of injected
        # hangs proportionate (honest runs cost ~4 ms, so 50 ms is still
        # an order of magnitude of headroom).
        faulted = run_campaign(workload, "pmfuzz", 2.0, seed=1234,
                               fault_plan="all:0.01",
                               exec_vtime_budget=0.05)
        clean = run_campaign(workload, "pmfuzz", 2.0, seed=1234,
                             exec_vtime_budget=0.05)
        assert faulted.stop_reason == "budget"
        assert faulted.harness_faults > 0
        assert faulted.final_pm_paths >= 0.8 * clean.final_pm_paths

    @pytest.mark.parametrize("config", ["aflpp", "aflpp_sysopt", "pmfuzz"])
    def test_soak_every_config(self, config):
        stats = run_campaign("hashmap_tx", config, 2.0, seed=7,
                             fault_plan="all:0.01")
        assert stats.stop_reason == "budget"
        assert stats.executions > 0

    def test_soak_burst_faults(self):
        """SSD brown-out: bursts of consecutive storage faults."""
        stats = run_campaign("hashmap_tx", "pmfuzz", 2.0, seed=7,
                             fault_plan="storage:0.01:5,exec:0.01")
        assert stats.stop_reason == "budget"
        assert stats.harness_faults > 0

    def test_soak_high_rate_still_terminates(self):
        """Even a 20 % fault rate degrades, it does not hang or crash."""
        stats = run_campaign("hashmap_tx", "pmfuzz", 1.5, seed=7,
                             fault_plan="all:0.2")
        assert stats.stop_reason in ("budget", "exec-cap")
        assert stats.harness_faults > 0
