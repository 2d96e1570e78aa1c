"""Coverage-backend choice: ``settrace`` reference vs ``sys.monitoring``.

Branch coverage has two interchangeable backends:

* ``settrace`` — the original :class:`~repro.instrument.branchcov.
  BranchCoverage` recorder, retained as the reference semantics.  Works
  on every supported interpreter.  Line callbacks fire only in
  instrumented frames, but every other frame entered while the hook is
  installed still costs a ``call`` callback, and on CPython < 3.12 all
  bytecode runs on the slow tracing dispatch.  The PM library therefore
  runs with the hook lifted (:func:`~repro.instrument.branchcov.
  untraced`), leaving only the workload frames traced.
* ``monitoring`` — PEP 669 ``sys.monitoring`` LINE events (py3.12+).
  Lines in non-instrumented files answer ``DISABLE`` once and are never
  reported again, so the steady-state per-event cost collapses to the
  instrumented workload lines only.

The contract (enforced by ``tests/test_fastpath_grid.py`` and the
hypothesis properties in ``tests/fuzz/test_coverage_properties.py``) is
*identical edge maps*: the same ``stable_hash16(file:line)`` locations,
the same ``cur ^ (prev >> 1)`` slot encoding, byte-identical sparse
maps for the same execution.  So the platform decides, not the user:
:func:`make_branch_coverage` builds a monitoring recorder wherever the
interpreter provides ``sys.monitoring`` and its ``COVERAGE_ID`` tool
slot is free (or already ours), and a settrace recorder otherwise —
on older interpreters, and when another tool (a coverage tool or a
debugger) already holds the slot.  The choice is never a stats field:
``comparable()`` output is identical across backends.

:func:`set_backend` pins one backend for the recorders built after it;
it is the seam the equivalence tests use to reach the settrace path on
interpreters where monitoring would otherwise be chosen.
"""

from __future__ import annotations

import sys
from typing import Optional

#: Whether this interpreter provides PEP 669 monitoring (py3.12+).
HAVE_MONITORING = hasattr(sys, "monitoring")

#: The two backends, by name.
COV_BACKENDS = ("settrace", "monitoring")

#: The backend chosen while ``COVERAGE_ID`` is free: monitoring wherever
#: PEP 669 exists, else settrace.
DEFAULT_BACKEND = "monitoring" if HAVE_MONITORING else "settrace"

#: Name under which the monitoring recorder claims ``COVERAGE_ID``.
TOOL_NAME = "repro-branchcov"

#: Backend pinned by :func:`set_backend` (None = the platform decides).
_pinned: Optional[str] = None


def set_backend(name: Optional[str] = None) -> str:
    """Pin ``name`` for recorders built from now on (None unpins).

    Returns the backend :func:`make_branch_coverage` now builds.
    """
    global _pinned
    if name not in (None,) + COV_BACKENDS:
        raise ValueError(f"unknown coverage backend {name!r}; "
                         f"known: {', '.join(COV_BACKENDS)}")
    if name == "monitoring" and not HAVE_MONITORING:
        raise ValueError(
            "coverage backend 'monitoring' requires sys.monitoring "
            f"(PEP 669, py3.12+), unavailable on {sys.version.split()[0]}")
    _pinned = name
    return active_backend()


def active_backend() -> str:
    """The backend :func:`make_branch_coverage` builds right now."""
    if _pinned is not None:
        return _pinned
    if HAVE_MONITORING and sys.monitoring.get_tool(
            sys.monitoring.COVERAGE_ID) not in (None, TOOL_NAME):
        return "settrace"  # another tool holds the slot
    return DEFAULT_BACKEND


def make_branch_coverage():
    """Build a branch-coverage recorder under :func:`active_backend`."""
    if active_backend() == "monitoring":
        from repro.instrument.branchcov import MonitoringBranchCoverage
        return MonitoringBranchCoverage()
    from repro.instrument.branchcov import BranchCoverage
    return BranchCoverage()
