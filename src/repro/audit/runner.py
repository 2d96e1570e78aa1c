"""The durability auditor: trace, enumerate, recover, verify, report.

For each component the auditor

1. builds the durable baseline (``setup``) and snapshots it,
2. runs the protocol once under :class:`~repro.audit.trace.TracingVFS`,
3. enumerates every legal crash state of the recorded op trace
   (deterministically budget-sampled when asked),
4. materializes each state, runs the component's real recovery entry
   point against it, evaluates the typed invariants, and runs recovery
   a *second* time to check byte-exact idempotence,
5. keeps a replayable bundle for every violating state and reports.

Everything runs under the process's real wall clock and the default
OS VFS except the single traced protocol run — auditing never touches
a campaign's virtual clock, RNG streams, or ``comparable()`` stats.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro._vfs import install_vfs
from repro.audit.invariants import Violation, diff_trees, snapshot_tree
from repro.audit.protocols import COMPONENTS, build_protocol
from repro.audit.states import CrashStateEnumerator
from repro.audit.trace import TracingVFS

#: Name of the per-violation manifest inside a bundle directory.
BUNDLE_MANIFEST = "manifest.json"


@dataclass
class ComponentAudit:
    """Everything one component's audit produced."""

    component: str
    ops_recorded: int = 0
    states_enumerated: int = 0
    states_checked: int = 0
    violations: List[Violation] = field(default_factory=list)
    bundle_dirs: List[str] = field(default_factory=list)
    trace_lines: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class AuditReport:
    """The full audit outcome across the requested components."""

    results: List[ComponentAudit] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.results)

    def render(self, max_violations: int = 10) -> str:
        """The one-screen audit report."""
        lines = ["durability audit",
                 "================"]
        for r in self.results:
            verdict = "ok" if r.ok else f"{len(r.violations)} VIOLATIONS"
            lines.append(f"  {r.component:<11} {r.ops_recorded:3d} ops  "
                         f"{r.states_enumerated:4d} crash states  "
                         f"{r.states_checked:4d} checked  {verdict}")
        shown = 0
        for r in self.results:
            for v in r.violations:
                if shown < max_violations:
                    lines.append(f"  ! {v.render()}")
                shown += 1
        if shown > max_violations:
            lines.append(f"  … and {shown - max_violations} more")
        for r in self.results:
            if r.bundle_dirs:
                lines.append(f"  {len(r.bundle_dirs)} replayable "
                             f"{r.component} bundles under "
                             f"{os.path.dirname(r.bundle_dirs[0])}")
        lines.append(f"verdict: "
                     f"{'CLEAN' if self.ok else 'ORDERING BUGS FOUND'} "
                     f"({self.total_violations} violations across "
                     f"{len(self.results)} components)")
        return "\n".join(lines)


class DurabilityAuditor:
    """Drives the audit for one or more components.

    Args:
        out_dir: scratch/output directory; violating crash states are
            preserved under ``<out_dir>/<component>/violations/``.
        budget: max crash states checked per component (0 = exhaustive),
            selected deterministically and evenly across the state list.
        bus: optional :class:`~repro.observe.bus.TraceBus`; one
            ``audit`` event is emitted per component.
    """

    def __init__(self, out_dir: str, budget: int = 0, bus=None) -> None:
        self.out_dir = os.path.abspath(out_dir)
        self.budget = budget
        self.bus = bus

    # ------------------------------------------------------------------
    def audit(self, components: Optional[Sequence[str]] = None) \
            -> AuditReport:
        report = AuditReport()
        for name in (components or COMPONENTS):
            report.results.append(self.audit_component(name))
        return report

    def audit_component(self, name: str) -> ComponentAudit:
        protocol = build_protocol(name)
        result = ComponentAudit(component=name)
        comp_dir = os.path.join(self.out_dir, name)
        if os.path.exists(comp_dir):
            shutil.rmtree(comp_dir)
        base = os.path.join(comp_dir, "base")
        snapshot = os.path.join(comp_dir, "snapshot")
        os.makedirs(base)

        ctx = protocol.setup(base)
        shutil.copytree(base, snapshot)

        tracer = TracingVFS(base)
        old = install_vfs(tracer)
        try:
            protocol.run(base, ctx)
        finally:
            install_vfs(old)
        result.ops_recorded = len(tracer.ops)
        result.trace_lines = [op.describe() for op in tracer.ops]

        enum = CrashStateEnumerator(tracer.ops)
        states = enum.enumerate()
        result.states_enumerated = len(states)
        selected = enum.sample(states, self.budget)

        work = os.path.join(comp_dir, "work")
        for state in selected:
            result.states_checked += 1
            enum.materialize(state, snapshot, work)
            violations = self._check_state(protocol, state, work, ctx)
            if violations:
                result.violations.extend(violations)
                result.bundle_dirs.append(self._write_bundle(
                    protocol, enum, state, snapshot, comp_dir, violations))
        if os.path.exists(work):
            shutil.rmtree(work)
        # The traced base run and pristine snapshot are only needed for
        # bundling; drop them on a clean component to keep out_dir small.
        if result.ok:
            shutil.rmtree(comp_dir, ignore_errors=True)
        if self.bus is not None:
            self.bus.emit("audit", 0.0, component=name,
                          ops=result.ops_recorded,
                          states=result.states_enumerated,
                          checked=result.states_checked,
                          violations=len(result.violations))
        return result

    # ------------------------------------------------------------------
    def _check_state(self, protocol, state, work: str,
                     ctx: dict) -> List[Violation]:
        violations: List[Violation] = []

        def violated(invariant: str, detail: str) -> None:
            violations.append(Violation(
                component=protocol.name, state_id=state.state_id,
                invariant=invariant, detail=detail))

        try:
            recovered = protocol.recover(work, ctx)
        except Exception as exc:
            violated("recovery-completes",
                     f"recovery raised {type(exc).__name__}: {exc}")
            return violations
        for invariant in protocol.invariants:
            try:
                detail = invariant.check(work, ctx, recovered)
            except Exception as exc:
                detail = (f"invariant check crashed: "
                          f"{type(exc).__name__}: {exc}")
            if detail is not None:
                violated(invariant.name, detail)
        # Generic invariant: recovery is idempotent — a second pass over
        # an already-recovered tree must change nothing, byte for byte.
        before = snapshot_tree(work)
        try:
            protocol.recover(work, ctx)
        except Exception as exc:
            violated("recovery-idempotent",
                     f"second recovery raised {type(exc).__name__}: {exc}")
        else:
            drift = diff_trees(before, snapshot_tree(work))
            if drift is not None:
                violated("recovery-idempotent", drift)
        return violations

    def _write_bundle(self, protocol, enum, state, snapshot: str,
                      comp_dir: str,
                      violations: List[Violation]) -> str:
        """Preserve a replayable copy of one violating crash state."""
        bundle = os.path.join(comp_dir, "violations", state.state_id)
        # Re-materialize from the pristine snapshot: the working copy
        # has been mutated by two recovery passes, and the bundle must
        # hold the *pre-recovery* crash state.
        enum.materialize(state, snapshot, os.path.join(bundle, "state"))
        manifest = {
            "component": protocol.name,
            "state_id": state.state_id,
            "description": state.describe(enum.ops),
            "cut": state.cut,
            "dropped": list(state.dropped),
            "torn": list(state.torn) if state.torn else None,
            "trace": [op.describe() for op in enum.ops],
            "violations": [v.render() for v in violations],
            "replay": ("state/ holds the materialized pre-recovery crash "
                       "state; point the component's recovery entry point "
                       "at it (see DESIGN.md section 13) to reproduce"),
        }
        with open(os.path.join(bundle, BUNDLE_MANIFEST), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return bundle
