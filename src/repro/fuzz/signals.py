"""Two-stage graceful shutdown for a fuzzing campaign.

The first SIGINT/SIGTERM requests a *clean* stop: the fuzzing loop
finishes its in-flight execution, takes a final checkpoint, and reports
``stop_reason="signal"`` — nothing from the campaign tail is lost.  The
second signal hard-exits immediately (the operator has decided the
process is beyond saving), mirroring the Ctrl-C convention of every
long-running Unix tool.
"""

from __future__ import annotations

import os
import signal
import sys
from typing import Callable, Iterable


class GracefulStop:
    """First signal → ``on_first()``; second signal → hard exit.

    ``on_first`` must be safe to run inside a signal handler — the
    engine's :meth:`~repro.fuzz.engine.FuzzEngine.request_stop` (a flag
    write) qualifies.  Handlers are installed with :meth:`install` and
    can be restored with :meth:`uninstall` (tests, nested scopes).
    """

    def __init__(self, on_first: Callable[[], None],
                 signals: Iterable[int] = (signal.SIGINT, signal.SIGTERM)
                 ) -> None:
        self.on_first = on_first
        self.signals = tuple(signals)
        self.count = 0
        self._previous: dict = {}

    # ------------------------------------------------------------------
    def install(self) -> "GracefulStop":
        for signum in self.signals:
            self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def uninstall(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, TypeError):
                pass  # not the main thread, or handler not restorable
        self._previous.clear()

    # ------------------------------------------------------------------
    def _handle(self, signum: int, frame) -> None:
        self.count += 1
        if self.count == 1:
            print(f"[campaign] caught {signal.Signals(signum).name}: "
                  "stopping cleanly (final checkpoint + summary); "
                  "signal again to hard-exit", file=sys.stderr)
            self.on_first()
        else:
            self._hard_exit(signum)

    @staticmethod
    def _hard_exit(signum: int) -> None:
        # os._exit, not sys.exit: the second signal means "now", with no
        # finally-blocks, atexit hooks, or buffered-IO flushing in the way.
        os._exit(128 + signum)


def install_graceful_stop(engine) -> GracefulStop:
    """Wire two-stage shutdown to ``engine.request_stop``."""
    return GracefulStop(engine.request_stop).install()
