"""Per-execution instrumentation context.

Ties the PM-op registry, the PM counter-map and the trace buffer together
for one execution of a workload, and exposes them to the pmdk layer via a
module-level context stack.  The pmdk functions call
:func:`current_context` on every PM operation; when no context is active
(plain library use outside the fuzzer), tracking is a no-op, which is the
analogue of running an uninstrumented binary.

The context also carries the :class:`~repro.pmdk.inject.BugInjector`
(if any) so the library can consult active synthetic bugs, mirroring how
the paper injects bugs into PMDK itself.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator, List, Optional

from repro.instrument.branchcov import UNTRACED_CODE
from repro.instrument.counter_map import PMCounterMap
from repro.instrument.pmops import GLOBAL_REGISTRY, PMOpRegistry
from repro.pmem.persistence import TraceEvent


class ExecutionContext:
    """Instrumentation state for a single workload execution.

    Attributes:
        counter_map: the Algorithm-1 PM counter-map for this execution.
        trace: collected PM trace events (consumed by the detectors).
        registry: call-site ID registry (shared, compile-time analogue).
        injector: optional synthetic-bug injector consulted by pmdk.
    """

    def __init__(
        self,
        registry: Optional[PMOpRegistry] = None,
        injector: Optional[object] = None,
        collect_trace: bool = True,
        counter_map: Optional[object] = None,
    ) -> None:
        self.registry = registry or GLOBAL_REGISTRY
        # The executor pools one counter map across executions (64 KiB
        # allocated once, reset in place per exec); standalone contexts
        # build their own.
        self.counter_map = counter_map if counter_map is not None \
            else PMCounterMap()
        self.trace: List[TraceEvent] = []
        self.injector = injector
        self.collect_trace = collect_trace
        #: All PM-operation site labels hit (synthetic-bug site coverage).
        self.sites_hit: set = set()

    def record_pm_op(self, site_label: str) -> int:
        """Record one PM operation at ``site_label``; returns its op ID."""
        op_id = self.registry.site_id(site_label)
        self.counter_map.update(op_id)
        self.sites_hit.add(site_label)
        return op_id

    def observe(self, event: TraceEvent) -> None:
        """PersistenceDomain observer: buffer the trace event."""
        if self.collect_trace:
            self.trace.append(event)


_STACK: List[ExecutionContext] = []


def current_context() -> Optional[ExecutionContext]:
    """Return the innermost active context, or None."""
    return _STACK[-1] if _STACK else None


@contextlib.contextmanager
def push_context(ctx: ExecutionContext) -> Iterator[ExecutionContext]:
    """Activate ``ctx`` for the dynamic extent of the with-block."""
    _STACK.append(ctx)
    try:
        yield ctx
    finally:
        popped = _STACK.pop()
        assert popped is ctx, "instrumentation context stack corrupted"


_SITE_CACHE: dict = {}


def pm_call_site(depth: int = 2) -> str:
    """Return the ``file:line`` label of the PM-library caller.

    ``depth`` counts frames above this function: the default of 2 labels
    the caller of the pmdk entry point that invoked ``pm_call_site``.
    This reproduces the compiler pass inserting a tracking call *at the
    call site* of each PM library function (Section 4.2).  Labels are
    cached per (code object, line), since call sites are static.

    Frames of :func:`~repro.instrument.branchcov.untraced` wrappers are
    skipped, so a decorated entry point labels the same caller an
    undecorated one would, not the wrapper's own ``file:line``.
    """
    frame = sys._getframe(depth)
    while frame.f_code is UNTRACED_CODE:
        frame = frame.f_back
    key = (id(frame.f_code), frame.f_lineno)
    label = _SITE_CACHE.get(key)
    if label is None:
        filename = frame.f_code.co_filename
        # Trailing two path components keep labels stable and readable.
        parts = filename.replace("\\", "/").rsplit("/", 2)
        label = f"{'/'.join(parts[-2:])}:{frame.f_lineno}"
        _SITE_CACHE[key] = label
    return label
