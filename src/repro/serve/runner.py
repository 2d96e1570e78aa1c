"""One hosted campaign: the forked child the daemon supervises.

The runner is the serving plane's analogue of a fleet member
(:mod:`repro.orchestrate.member`), minus the corpus barriers: it drives
a full campaign engine in checkpoint-sized slices, renews a heartbeat
lease at each round so the daemon's watchdog can tell a slow campaign
from a wedged one, and distinguishes two clean exits:

* **0** — the campaign reached its terminal state; the final stats
  were atomically published as ``stats.bin`` (the daemon reads this,
  marks the campaign done, and only then commits the journal intent).
* **75** (``EX_TEMPFAIL``) — the daemon is draining: the runner
  checkpointed everything and got out of the way.  The journal intent
  stays pending, so the next daemon start resumes the campaign
  bit-for-bit (PR-1's resume contract) and it still terminates exactly
  once.

Any other status is a death the daemon's backoff/circuit-breaker
machinery deals with.  Because the runner re-checkpoints at fixed
virtual-time boundaries and every random decision flows through the
snapshotted RNG, a SIGKILLed-and-resumed campaign produces
``comparable()`` stats identical to an undisturbed one — the serving
plane inherits the determinism contract instead of re-proving it.
"""

from __future__ import annotations

import math
import os
import signal
import time
import traceback

from repro._util import atomic_write_bytes
from repro.core.config import config_by_name
from repro.fuzz.engine import FuzzEngine
from repro.fuzz.rng import DeterministicRandom
from repro.orchestrate.heartbeat import HeartbeatWriter
from repro.serve.state import ServePaths

#: Clean drain exit: checkpointed, not terminal (sysexits EX_TEMPFAIL).
DRAIN_EXIT = 75

#: Chaos exit used by the ``fail`` hook (exercises the circuit breaker).
CHAOS_EXIT = 3


def _build_engine(request: dict, cid: str, paths: ServePaths) -> FuzzEngine:
    ckpt = paths.checkpoint(cid)
    if os.path.exists(ckpt):
        return FuzzEngine.resume(ckpt)
    from repro.core.pmfuzz import build_engine

    config = config_by_name(request["config"])
    rng = DeterministicRandom(int(request["seed"])).fork(
        f"{request['workload']}/{config.name}")
    return build_engine(
        request["workload"], config, rng=rng,
        fault_plan=request.get("fault_plan"),
        checkpoint_path=ckpt,
        trace_dir=paths.campaign_dir(cid),
    )


def runner_main(request: dict, cid: str, root: str,
                lease_s: float = 5.0,
                checkpoint_every: float = 0.25) -> int:
    """Run one submitted campaign to its terminal state (or a drain).

    Called in the forked child by the daemon (and directly by tests).
    Never raises: an unexpected error becomes a nonzero status for the
    daemon's circuit breaker.
    """
    try:
        return _runner_main(request, cid, root, lease_s, checkpoint_every)
    except Exception:
        traceback.print_exc()
        return 1


def _runner_main(request: dict, cid: str, root: str,
                 lease_s: float, checkpoint_every: float) -> int:
    paths = ServePaths(root)
    campaign_dir = paths.campaign_dir(cid)
    os.makedirs(campaign_dir, exist_ok=True)
    heartbeat = HeartbeatWriter(paths.heartbeat(cid), lease_s=lease_s)
    heartbeat.beat(0)

    chaos = request.get("chaos")
    if chaos == "fail":
        # Always dies: the watchdog's circuit breaker must retire it.
        return CHAOS_EXIT
    if chaos == "wedge-once":
        # Wedge exactly once: the lease expires, the watchdog escalates
        # SIGTERM → SIGKILL, and the restarted runner (marker present)
        # proceeds normally.
        marker = os.path.join(campaign_dir, "wedged.once")
        if not os.path.exists(marker):
            atomic_write_bytes(marker, b"", fsync=False)
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            while True:
                time.sleep(3600.0)

    # Install the drain handler *before* the (potentially slow) engine
    # build: a SIGTERM that lands while the engine is still being
    # constructed or resumed must park the campaign, not kill the child
    # under the default disposition (which the daemon would count as a
    # death).
    holder = {"engine": None, "requested": False}

    def on_sigterm(signum, frame):
        holder["requested"] = True
        if holder["engine"] is not None:
            holder["engine"].request_stop()

    previous = signal.signal(signal.SIGTERM, on_sigterm)
    # The daemon forks runners with SIGTERM blocked (see
    # ServeDaemon._spawn); one that arrived since is delivered now.
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    engine = _build_engine(request, cid, paths)
    holder["engine"] = engine
    if holder["requested"]:
        engine.request_stop()

    budget = float(request["budget"])
    slice_every = min(checkpoint_every, budget) or budget
    epochs = max(1, int(math.ceil(budget / slice_every)))
    start = min(int(engine.vclock / slice_every), epochs - 1)
    try:
        for epoch in range(start, epochs):
            heartbeat.beat(epoch)
            engine.run_slice(min(budget, (epoch + 1) * slice_every))
            if engine.stop_requested:
                break
            engine.checkpoint()
        if engine.stop_requested and engine.vclock < budget:
            # Drain: persist everything and get out of the way.  The
            # checkpoint (determinism-neutral, PR-4) is what makes
            # "drain then resume" equal to "never drained".
            engine.checkpoint()
            engine.close()
            return DRAIN_EXIT
        # A stop that landed exactly as the budget ran out is not a
        # drain: clear the flag so finish() reports stop_reason="budget"
        # identically to an unsignalled run.
        engine._stop_requested = False
        stats = engine.finish()
    finally:
        signal.signal(signal.SIGTERM, previous)
    paths.write_stats(cid, stats)
    heartbeat.beat(epochs)
    return 0
