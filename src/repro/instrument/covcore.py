"""Coverage-backend selection: ``settrace`` reference vs ``sys.monitoring``.

The per-exec fast path splits branch coverage into two interchangeable
backends behind one selection seam:

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
maps for the same execution.  The monitoring backend is therefore the
default wherever the interpreter provides ``sys.monitoring``; older
interpreters degrade to ``settrace`` automatically (graceful
degradation, never a hard failure).

Selection is process-global because executions fork into worker
subprocesses that inherit the constructed executor, so the engine sets
the global once from its ``cov_backend`` kwarg before the executor is
built, and records the resolved value in its campaign metadata.  The
backend is engine configuration, never a stats field: ``comparable()``
output is identical across backends.
"""

from __future__ import annotations

import sys
from typing import Iterable, Optional

from repro.errors import FuzzerError

#: Whether this interpreter provides PEP 669 monitoring (py3.12+).
HAVE_MONITORING = hasattr(sys, "monitoring")

#: Backend names accepted by ``--cov-backend`` / :func:`set_backend`.
COV_BACKENDS = ("settrace", "monitoring")

#: The default backend: monitoring wherever PEP 669 exists, else settrace.
DEFAULT_BACKEND = "monitoring" if HAVE_MONITORING else "settrace"

_active = DEFAULT_BACKEND


def resolve(name: Optional[str] = None) -> str:
    """Validate ``name`` and resolve None/"" to the platform default.

    Asking for ``monitoring`` on an interpreter without ``sys.monitoring``
    is a configuration error (the caller asked for something the host
    cannot honor), unlike the silent default degradation when no backend
    is named.
    """
    if name in (None, ""):
        return DEFAULT_BACKEND
    if name not in COV_BACKENDS:
        raise FuzzerError(f"unknown coverage backend {name!r}; "
                          f"known: {', '.join(COV_BACKENDS)}")
    if name == "monitoring" and not HAVE_MONITORING:
        raise FuzzerError(
            "coverage backend 'monitoring' requires sys.monitoring "
            f"(PEP 669, py3.12+), unavailable on {sys.version.split()[0]}")
    return name


def set_backend(name: Optional[str] = None) -> str:
    """Select the process-global backend; returns the resolved name."""
    global _active
    _active = resolve(name)
    return _active


def active_backend() -> str:
    """The backend :func:`make_branch_coverage` currently builds."""
    return _active


# ----------------------------------------------------------------------
# Construction factory (the only seam the rest of the code uses)
# ----------------------------------------------------------------------
def make_branch_coverage(path_fragments: Optional[Iterable[str]] = None):
    """Build a branch-coverage recorder under the active backend."""
    if _active == "monitoring":
        from repro.instrument.branchcov import MonitoringBranchCoverage
        return MonitoringBranchCoverage(path_fragments)
    from repro.instrument.branchcov import BranchCoverage
    return BranchCoverage(path_fragments)
