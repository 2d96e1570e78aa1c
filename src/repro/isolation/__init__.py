"""Fork-server worker isolation (the literal Section-4.7 / AFL++ layer).

Public surface:

* :func:`~repro.isolation.backend.create_backend` — backend selection
  with graceful in-process fallback;
* :class:`~repro.isolation.backend.InProcessBackend` /
  :class:`~repro.isolation.backend.ForkServerBackend` — the two
  execution backends behind the supervisor;
* :class:`~repro.isolation.pool.ForkWorkerPool` — the raw worker pool
  (fork, dispatch, watchdog, recycle, reap).
"""

from repro.core.config import ISOLATION_MODES
from repro.isolation.backend import (ExecutionBackend, ForkServerBackend,
                                     InProcessBackend, create_backend,
                                     fork_unavailable_reason)
from repro.isolation.pool import (ForkWorkerPool, WatchdogExpired,
                                  WorkerDeath)

__all__ = [
    "ExecutionBackend",
    "ForkServerBackend",
    "ForkWorkerPool",
    "InProcessBackend",
    "ISOLATION_MODES",
    "WatchdogExpired",
    "WorkerDeath",
    "create_backend",
    "fork_unavailable_reason",
]
