"""AFL-style branch (edge) coverage for Python workloads.

AFL++ instruments every basic block at compile time; at runtime the pair
(previous block, current block) is hashed into a 64 Ki slot bitmap.  The
reproduction gets the same signal from line events restricted to
workload source files: each executed line is a location, consecutive
locations form an edge, and edges index an AFL-style counter map with
the classic ``cur ^ (prev >> 1)`` encoding.

Location IDs are stable CRC hashes of ``file:line``, satisfying the
derandomization requirement: the same input always produces the same
coverage map.

Two recorders implement the same map (see
:mod:`repro.instrument.covcore` for selection):

* :class:`BranchCoverage` — ``sys.settrace`` line events, the reference
  backend that runs on every supported interpreter.
* :class:`MonitoringBranchCoverage` — PEP 669 ``sys.monitoring`` LINE
  events (py3.12+), which lets non-instrumented code answer ``DISABLE``
  once per location instead of paying a callback per line forever.

Under ``settrace`` a non-instrumented frame costs no line events (its
call event answers ``None``), but it still costs that call event, and
while any hook is installed CPython < 3.12 runs *every* frame on its
slow tracing dispatch.  The PM library is the bulk of that code, so its
public entry points are wrapped in :func:`untraced`: the recorder's hook
is lifted for the duration of the library call and reinstalled when
control returns to the workload.  That is AFL++'s split — only the
target is instrumented; the libraries linked into it run at native
speed — and it leaves the workload's line events, and therefore the
map, unchanged.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._util import stable_hash16
from repro.errors import FuzzerError
from repro.instrument.covcore import HAVE_MONITORING, TOOL_NAME

#: Coverage map size (matches AFL's 64 KiB).
COV_MAP_SIZE = 1 << 16

#: Only files whose path contains this fragment are instrumented (the
#: workloads package), mirroring how only the target binary is
#: AFL-instrumented.
INSTRUMENTED_FRAGMENT = "repro/workloads"

#: The hook the running :class:`BranchCoverage` installed (None when no
#: settrace recorder is running).  :func:`untraced` suspends only this
#: hook, and only when it is the calling thread's current one: a
#: debugger's or coverage.py's passes through untouched, and a stale
#: value (another thread's recorder) costs the speed-up, not the map.
_recorder_hook: Optional[Callable] = None


def _untraced_wrapper(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def untraced_call(*args, **kwargs):
        hook = _recorder_hook
        if hook is None or sys.gettrace() is not hook:
            # Not recording, already suspended (a nested entry point),
            # or someone else's tracer: run as is.
            return fn(*args, **kwargs)
        sys.settrace(None)
        try:
            return fn(*args, **kwargs)
        finally:
            # SimulatedCrash, SegmentationFault and TransactionAborted
            # all cross the library boundary.
            sys.settrace(hook)
    return untraced_call


#: Code object shared by every :func:`untraced` wrapper frame;
#: :func:`repro.instrument.context.pm_call_site` skips these frames.
UNTRACED_CODE = _untraced_wrapper(lambda: None).__code__


def untraced(fn: Callable) -> Callable:
    """Run ``fn`` with the settrace recorder suspended.

    For PM-library entry points that workload code calls and that never
    call back into workload code.  The workload frame keeps its local
    trace function, so its next line event fires exactly as before.
    Where ``sys.monitoring`` exists this is the identity: PEP 669
    ``DISABLE`` already keeps the library off the callback path there,
    and toggling ``sys.settrace`` would only re-instrument code.
    """
    if HAVE_MONITORING:
        return fn
    return _untraced_wrapper(fn)


class BranchCoverage:
    """Edge-coverage recorder over the workload source files
    (:data:`INSTRUMENTED_FRAGMENT`)."""

    def __init__(self) -> None:
        self.counters = bytearray(COV_MAP_SIZE)
        #: Slots hit this execution (lets consumers avoid full-map scans).
        #: Every touched slot has a nonzero counter — counters only ever
        #: increment between resets — so edge accounting derives from
        #: this set instead of scanning all 64 Ki slots.
        self.touched = set()
        self._prev_loc = 0
        self._file_ok: Dict[str, bool] = {}
        #: ``(id(code), lineno) -> (stable_hash16(file:line), code)``.
        #: Two aliasing hazards shape this layout: a bare ``id(code)``
        #: key can be reissued once the original code object is
        #: collected, and keying by the code object itself is no better —
        #: code objects hash and compare *ignoring* ``co_filename``, so
        #: identical source compiled under two filenames would share one
        #: entry.  Keying by id and pinning the code object in the value
        #: closes both: the reference keeps the id from ever being
        #: reissued while the entry is cached.
        self._loc_cache: Dict[Tuple[int, int], Tuple[int, object]] = {}
        self._active = False
        #: Hooks in place before :meth:`start`, restored by :meth:`stop`:
        #: the thread's trace function and the recorder hook global.
        self._saved_hooks: Tuple[Optional[Callable], Optional[Callable]] = \
            (None, None)

    # ------------------------------------------------------------------
    def _instrumented(self, filename: str) -> bool:
        ok = self._file_ok.get(filename)
        if ok is None:
            norm = filename.replace("\\", "/")
            ok = INSTRUMENTED_FRAGMENT in norm
            self._file_ok[filename] = ok
        return ok

    def _hit(self, code, lineno: int) -> None:
        key = (id(code), lineno)
        entry = self._loc_cache.get(key)
        if entry is None:
            loc = stable_hash16(f"{code.co_filename}:{lineno}")
            self._loc_cache[key] = (loc, code)
        else:
            loc = entry[0]
        slot = (loc ^ self._prev_loc) & (COV_MAP_SIZE - 1)
        if self.counters[slot] != 0xFF:
            self.counters[slot] += 1
        self.touched.add(slot)
        self._prev_loc = loc >> 1

    def _global_trace(self, frame, event: str, arg) -> Optional[Callable]:
        if event != "call" or not self._instrumented(frame.f_code.co_filename):
            return None
        # Per-frame-entry line filter matching PEP 669 LINE semantics: an
        # event fires only when the line number *changes* within the
        # frame.  Seeding with ``f_lineno`` at the call event reproduces
        # the two places sys.monitoring stays silent where raw settrace
        # would fire again: a backward jump to a single-line loop body,
        # and generator/genexpr resumption into the defining line (each
        # resume is a fresh call event, so the seed re-arms).  Both
        # backends therefore produce byte-identical maps.
        last_line = frame.f_lineno

        def _local_trace(frame, event, arg):
            nonlocal last_line
            if event == "line" and frame.f_lineno != last_line:
                last_line = frame.f_lineno
                self._hit(frame.f_code, last_line)
            return _local_trace

        return _local_trace

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin recording (installs the trace hook)."""
        global _recorder_hook
        if self._active:
            return
        self._active = True
        hook = self._global_trace
        self._saved_hooks = (sys.gettrace(), _recorder_hook)
        _recorder_hook = hook
        sys.settrace(hook)

    def stop(self) -> None:
        """Stop recording (reinstalls the hook :meth:`start` replaced)."""
        global _recorder_hook
        if not self._active:
            return
        previous, _recorder_hook = self._saved_hooks
        sys.settrace(previous)
        self._saved_hooks = (None, None)
        self._active = False

    def __enter__(self) -> "BranchCoverage":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear counters for a fresh execution.

        In place: only the slots hit since the previous reset are
        zeroed, so the 64 KiB map is allocated once per recorder
        lifetime instead of once per execution.
        """
        counters = self.counters
        for slot in self.touched:
            counters[slot] = 0
        self.touched.clear()
        self._prev_loc = 0

    def preload(self, pairs: Sequence[Tuple[int, int]], prev_loc: int) -> None:
        """Replay a recorded ``(slot, count)`` delta into a fresh map.

        Used by the warm-open cache to re-apply the execution prefix's
        coverage without re-executing it; ``prev_loc`` restores the edge
        chain so the first post-prefix line forms the same edge it would
        after a cold run.
        """
        counters = self.counters
        touched = self.touched
        for slot, count in pairs:
            counters[slot] = count
            touched.add(slot)
        self._prev_loc = prev_loc

    @property
    def prev_loc(self) -> int:
        """The ``prev >> 1`` edge-chain state (for prefix capture)."""
        return self._prev_loc

    def sparse(self):
        """Yield (slot, count) for the slots hit this execution."""
        counters = self.counters
        return [(slot, counters[slot]) for slot in self.touched]

    def edge_count(self) -> int:
        """Number of distinct edges hit."""
        return len(self.touched)

    def nonzero_slots(self) -> List[int]:
        """Indices of all populated slots."""
        return sorted(self.touched)


class MonitoringBranchCoverage(BranchCoverage):
    """PEP 669 ``sys.monitoring`` LINE-event recorder (py3.12+).

    Produces the exact map :class:`BranchCoverage` produces — same
    ``stable_hash16`` locations, same ``cur ^ (prev >> 1)`` slots — but
    non-instrumented code locations answer ``sys.monitoring.DISABLE``
    on first sight and never fire again, so steady-state event cost is
    confined to the instrumented workload lines.  ``DISABLE`` decisions
    are interpreter-global per tool id and outlive any single recorder;
    they stay valid because every recorder instruments the same files.
    """

    #: Whether COVERAGE_ID has been claimed for this process.
    _tool_claimed = False

    def start(self) -> None:
        if self._active:
            return
        mon = sys.monitoring
        cls = MonitoringBranchCoverage
        if not cls._tool_claimed:
            try:
                mon.use_tool_id(mon.COVERAGE_ID, TOOL_NAME)
            except ValueError as exc:
                raise FuzzerError(
                    "sys.monitoring COVERAGE_ID is already claimed by "
                    f"another tool ({mon.get_tool(mon.COVERAGE_ID)!r})"
                ) from exc
            cls._tool_claimed = True
        mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, self._on_line)
        mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
        self._active = True

    def stop(self) -> None:
        if not self._active:
            return
        mon = sys.monitoring
        mon.set_events(mon.COVERAGE_ID, 0)
        mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, None)
        self._active = False

    def _on_line(self, code, line_number: int):
        key = (id(code), line_number)
        entry = self._loc_cache.get(key)
        if entry is None:
            if not self._instrumented(code.co_filename):
                return sys.monitoring.DISABLE
            loc = stable_hash16(f"{code.co_filename}:{line_number}")
            self._loc_cache[key] = (loc, code)
        else:
            loc = entry[0]
        slot = (loc ^ self._prev_loc) & (COV_MAP_SIZE - 1)
        if self.counters[slot] != 0xFF:
            self.counters[slot] += 1
        self.touched.add(slot)
        self._prev_loc = loc >> 1
        return None
