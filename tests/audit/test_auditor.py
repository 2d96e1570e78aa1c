"""The durability auditor end to end: every store, every crash state."""

import os

import pytest

from repro.audit.protocols import COMPONENTS, build_protocol
from repro.audit.runner import DurabilityAuditor
from repro.fuzz.stats import FuzzStats
from repro.observe.bus import TraceBus
from repro.observe.sink import JsonlTraceSink, merge_shards, shard_name


@pytest.mark.parametrize("component", COMPONENTS)
def test_component_is_crash_clean(component, tmp_path):
    """Exhaustive audit: no crash state of the fixed tree violates."""
    result = DurabilityAuditor(str(tmp_path / "out")).audit_component(
        component)
    assert result.ok, "\n".join(v.render() for v in result.violations)
    # At least one crash state per recorded op (the prefix cuts alone
    # guarantee ops + 1), and everything enumerated was checked.
    assert result.ops_recorded > 0
    assert result.states_enumerated >= result.ops_recorded + 1
    assert result.states_checked == result.states_enumerated


def test_unknown_component_rejected():
    with pytest.raises(ValueError, match="unknown audit component"):
        build_protocol("tape-drive")


def test_audit_is_deterministic(tmp_path):
    """Same component + budget => identical trace, states, and report."""
    runs = []
    for i in range(2):
        auditor = DurabilityAuditor(str(tmp_path / f"out{i}"), budget=11)
        report = auditor.audit(["sink"])
        runs.append((report.results[0].trace_lines,
                     report.results[0].states_enumerated,
                     report.results[0].states_checked,
                     report.render()))
    assert runs[0] == runs[1]


def test_budget_bounds_checked_states(tmp_path):
    result = DurabilityAuditor(str(tmp_path / "out"),
                               budget=5).audit_component("checkpoint")
    assert result.ok
    assert result.states_checked <= 5
    assert result.states_enumerated > result.states_checked


def test_clean_component_leaves_no_output_tree(tmp_path):
    out = tmp_path / "out"
    result = DurabilityAuditor(str(out)).audit_component("checkpoint")
    assert result.ok
    assert not (out / "checkpoint").exists()


def test_audit_emits_one_bus_event_per_component(tmp_path):
    sink = JsonlTraceSink(str(tmp_path / "trace" / shard_name(-1)))
    bus = TraceBus(sink=sink, flush_every=1)
    DurabilityAuditor(str(tmp_path / "out"), budget=3,
                      bus=bus).audit(["checkpoint", "sink"])
    bus.flush()
    events, _ = merge_shards(str(tmp_path / "trace"))
    audits = [e for e in events if e.kind == "audit"]
    assert [e.payload["component"] for e in audits] == ["checkpoint", "sink"]
    assert all(e.payload["violations"] == 0 for e in audits)
    assert all(e.payload["checked"] <= 3 for e in audits)


def test_comparable_stats_untouched_by_auditing(tmp_path):
    """Auditing is pure host-side tooling: it must not perturb any field
    of the campaign-stats determinism contract."""
    stats = FuzzStats()
    before = stats.comparable()
    DurabilityAuditor(str(tmp_path / "out"), budget=4).audit(["corpus"])
    assert stats.comparable() == before


def test_report_render_caps_violation_listing():
    from repro.audit.invariants import Violation
    from repro.audit.runner import AuditReport, ComponentAudit

    result = ComponentAudit(component="demo", ops_recorded=1,
                            states_enumerated=30, states_checked=30)
    result.violations = [
        Violation(component="demo", state_id=f"p{i:03d}",
                  invariant="inv", detail="boom") for i in range(14)]
    text = AuditReport(results=[result]).render(max_violations=10)
    assert "… and 4 more" in text
    assert "ORDERING BUGS FOUND" in text
    assert text.count("! demo/") == 10
