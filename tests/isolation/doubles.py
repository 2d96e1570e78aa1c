"""Test doubles for the isolation layer.

These live in an importable module (not inside a test file) because the
forked workers pickle their replies by reference: the classes must
resolve to the same module path on both sides of the pipe.  That is
trivially true after ``os.fork`` — both ends are the same process image
— but keeping the doubles here also lets every isolation test share
them.
"""

from __future__ import annotations

import os
import signal
import time

from repro.errors import FuzzerError


class RecordingInjector:
    """Stand-in for the workload BugInjector: just the triggered set."""

    def __init__(self) -> None:
        self.triggered = set()


class ScriptedExecutor:
    """Executor double whose behavior is keyed on the input bytes.

    ``b"hang"`` spins forever (watchdog fodder), ``b"die"`` hard-exits
    the worker process, ``b"tear"`` makes the worker SIGKILL itself
    halfway through writing its reply, ``b"boom"`` raises a
    harness-level error, and ``b"trigger"`` records a synthetic-bug
    trigger; anything else echoes its arguments back.
    """

    def __init__(self) -> None:
        self.env_faults = None
        self.injector = RecordingInjector()

    def _env_check(self) -> None:
        pass

    def run_raw_image(self, image_bytes: bytes, data: bytes):
        if data == b"hang":
            while True:
                time.sleep(0.05)
        if data == b"die":
            os._exit(3)
        if data == b"tear":
            real_write = os.write

            def torn_write(fd, buf):
                real_write(fd, bytes(buf[:len(buf) // 2]))
                os.kill(os.getpid(), signal.SIGKILL)

            os.write = torn_write  # only ever inside a forked worker
            return ("echo", b"\xab" * (1 << 20), bytes(data))
        if data == b"boom":
            raise FuzzerError("scripted harness error")
        if data == b"trigger":
            self.injector.triggered.add("bug-1")
        return ("echo", bytes(image_bytes), bytes(data))

    def run(self, image, data: bytes, **kwargs):
        return self.run_raw_image(b"", data)
