"""Two-stage graceful shutdown: clean stop, then hard exit.

Satellite invariant: the first SIGINT/SIGTERM ends the campaign with a
final checkpoint and ``stop_reason="signal"``; the second hard-exits.
"""

import os
import signal

import pytest

from repro.core.pmfuzz import run_campaign
from repro.fuzz.engine import FuzzEngine
from repro.fuzz.signals import GracefulStop, install_graceful_stop


class TestGracefulStop:
    def test_first_signal_invokes_callback_only(self, monkeypatch):
        exits = []
        monkeypatch.setattr(GracefulStop, "_hard_exit",
                            staticmethod(exits.append))
        calls = []
        stop = GracefulStop(lambda: calls.append(1))
        stop._handle(signal.SIGTERM, None)
        assert calls == [1]
        assert exits == []

    def test_second_signal_hard_exits(self, monkeypatch):
        exits = []
        monkeypatch.setattr(GracefulStop, "_hard_exit",
                            staticmethod(exits.append))
        stop = GracefulStop(lambda: None)
        stop._handle(signal.SIGINT, None)
        stop._handle(signal.SIGINT, None)
        assert exits == [signal.SIGINT]

    def test_real_signal_delivery(self):
        calls = []
        stop = GracefulStop(lambda: calls.append(1),
                            signals=(signal.SIGUSR1,)).install()
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
        finally:
            stop.uninstall()
        assert calls == [1]

    def test_uninstall_restores_previous_handler(self):
        sentinel = lambda signum, frame: None  # noqa: E731
        previous = signal.signal(signal.SIGUSR1, sentinel)
        try:
            stop = GracefulStop(lambda: None,
                                signals=(signal.SIGUSR1,)).install()
            assert signal.getsignal(signal.SIGUSR1) == stop._handle
            stop.uninstall()
            assert signal.getsignal(signal.SIGUSR1) is sentinel
        finally:
            signal.signal(signal.SIGUSR1, previous)

    def test_install_helper_wires_request_stop(self):
        engine = type("E", (), {})()
        flagged = []
        engine.request_stop = lambda: flagged.append(1)
        stop = install_graceful_stop(engine)
        try:
            stop.on_first()
        finally:
            stop.uninstall()
        assert flagged == [1]


def _stop_after(engine, vtime=0.2):
    """Request a stop at the first round boundary past ``vtime``, as a
    signal handler would; the loop polls the checkpoint schedule once
    per round, so that is where the request is made."""
    maybe_checkpoint = engine._maybe_checkpoint

    def hook():
        if engine.vclock > vtime:
            engine.request_stop()
        maybe_checkpoint()
    engine._maybe_checkpoint = hook


class TestEngineSignalStop:
    def test_requested_stop_ends_campaign_with_signal_reason(self, tmp_path):
        ckpt = str(tmp_path / "c.ckpt")
        stats = run_campaign("btree", "pmfuzz", 5.0, engine_hook=_stop_after,
                             checkpoint_path=ckpt)
        assert stats.stop_reason == "signal"
        # The loop stopped long before the budget was exhausted...
        assert stats.samples[-1].vtime < 5.0
        # ...and the final checkpoint preserved the campaign tail.
        assert os.path.exists(ckpt)

    def test_signal_stopped_campaign_is_resumable(self, tmp_path):
        ckpt = str(tmp_path / "c.ckpt")
        interrupted = run_campaign("btree", "pmfuzz", 1.0,
                                   engine_hook=_stop_after,
                                   checkpoint_path=ckpt)
        assert interrupted.stop_reason == "signal"
        resumed_stats = run_campaign("btree", "pmfuzz", 1.0,
                                     resume_from=ckpt)
        assert resumed_stats.stop_reason == "budget"
        assert resumed_stats.executions > interrupted.executions

    def test_stop_requested_flag_and_property(self):
        engine = FuzzEngine.__new__(FuzzEngine)
        engine._stop_requested = False
        assert engine.stop_requested is False
        engine.request_stop()
        assert engine.stop_requested is True
