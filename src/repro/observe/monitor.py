"""Live campaign monitoring: atomic ``status.json`` + terminal tail.

The engine publishes a :func:`status_snapshot` of its
:class:`~repro.fuzz.stats.FuzzStats` to ``status.json`` every
``status_every`` virtual seconds, via the same write-tmp+fsync+rename
discipline as every other durable artifact — a reader never sees a torn
status file, only the previous complete one.

``python -m repro monitor <dir>`` tails the status files in a trace
directory and redraws a
terminal summary; ``--once`` renders a single frame, which is what the
CI smoke test drives.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from repro._util import atomic_write_bytes

STATUS_VERSION = 1

#: The status file a campaign publishes in its trace directory.
STATUS_NAME = "status.json"


def status_snapshot(stats, vclock: float) -> dict:
    """JSON-friendly snapshot of one campaign's live statistics."""
    sample = stats.samples[-1] if stats.samples else None
    return {
        "version": STATUS_VERSION,
        "config": stats.config_name,
        "workload": stats.workload_name,
        "vtime": vclock,
        "executions": stats.executions,
        "execs_per_vsec": stats.executions / vclock if vclock else 0.0,
        "pm_paths": sample.pm_paths if sample else 0,
        "branch_edges": sample.branch_edges if sample else 0,
        "queue_size": sample.queue_size if sample else 0,
        "images": sample.images if sample else 0,
        "harness_faults": stats.harness_faults,
        "quarantined": stats.quarantined,
        "stop_reason": stats.stop_reason,
        "curve": [[s.vtime, s.pm_paths] for s in stats.samples],
        "metrics": stats.metrics,
        "metrics_host": stats.metrics_host,
        # Wall-clock stamp for staleness display only; never read back
        # into campaign state.
        "written_at": time.time(),
    }


class StatusWriter:
    """Publishes ``status.json`` atomically on a virtual-time cadence."""

    def __init__(self, path: str, every_vtime: float = 0.5) -> None:
        if every_vtime <= 0:
            raise ValueError("status cadence must be positive")
        self.path = path
        self.every_vtime = every_vtime
        self._next = 0.0
        self.writes = 0
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)

    def maybe_write(self, stats, vclock: float, force: bool = False) -> bool:
        if not force and vclock < self._next:
            return False
        self._next = vclock + self.every_vtime
        snapshot = status_snapshot(stats, vclock)
        blob = json.dumps(snapshot, sort_keys=True).encode("utf-8")
        # fsync=False: status is advisory (a monitor's view), and an
        # fsync per cadence tick would tax the campaign it watches; the
        # rename still guarantees readers never see a torn file.
        atomic_write_bytes(self.path, blob, fsync=False)
        self.writes += 1
        return True


# ----------------------------------------------------------------------
# Reader / terminal renderer
# ----------------------------------------------------------------------
def read_status(path: str, retries: int = 3,
                retry_delay: float = 0.02) -> Optional[dict]:
    """Load one status file; None when absent or unreadable.

    A JSON parse failure on an *existing* file is treated as a torn
    read from a concurrent writer — the engine publishes via atomic
    rename, but network and overlay filesystems do not all honor
    rename atomicity for readers — and retried a bounded number of
    times before giving up.  Every reader (``monitor``, ``report``)
    shares this policy, so a torn read costs one stale frame, never a
    traceback.
    """
    for attempt in range(retries + 1):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except OSError:
            return None  # absent (campaign not started) — no retry
        except ValueError:
            if attempt >= retries:
                return None
            time.sleep(retry_delay)
    return None


def read_campaign_status(trace_dir: str) -> Optional[dict]:
    """The campaign's latest status snapshot; None before the first."""
    return read_status(os.path.join(trace_dir, STATUS_NAME))


def render_status(snap: Optional[dict]) -> str:
    """One terminal frame of a campaign's status snapshot."""
    from repro.analysis.figures import sparkline

    if not snap:
        return "no status files yet (campaign not started, or no " \
               "--trace-dir configured)"
    title = f"{snap.get('workload') or '?'} / {snap.get('config') or '?'}"
    curve = [int(p) for _, p in snap.get("curve") or []]
    age = time.time() - snap.get("written_at", time.time())
    status = snap.get("stop_reason") or "running"
    return "\n".join([
        f"== campaign monitor — {title} ==",
        f"vt={snap.get('vtime', 0.0):8.3f} "
        f"execs={snap.get('executions', 0):7d} "
        f"pm={snap.get('pm_paths', 0):5d} "
        f"edges={snap.get('branch_edges', 0):5d} "
        f"q={snap.get('queue_size', 0):4d} "
        f"faults={snap.get('harness_faults', 0):3d} "
        f"[{status}] ({age:.0f}s ago)",
        sparkline(curve, snap.get("pm_paths", 0))])


def wait_for_campaign(trace_dir: str, wait: float, out=None,
                      poll: float = 0.1, what: str = "status") -> bool:
    """Bounded retry-with-backoff until the campaign produces data.

    A monitor or report started *before* (or racing) the campaign sees
    a missing directory, no status files, or a half-written shard; this
    polls — backing off from ``poll`` up to 2 s — until either a
    readable status snapshot or a trace shard appears, printing one
    clear "waiting for campaign" line instead of failing.  Returns True
    when data showed up within ``wait`` seconds.
    """
    import sys

    from repro.observe.sink import shard_files

    out = out or sys.stdout

    def has_data() -> bool:
        if read_campaign_status(trace_dir) is not None:
            return True
        return bool(shard_files(trace_dir))

    if has_data():
        return True
    if wait <= 0:
        return False
    deadline = time.monotonic() + wait
    print(f"waiting for campaign: no {what} under {trace_dir} yet "
          f"(retrying for up to {wait:.0f}s)", file=out, flush=True)
    delay = max(poll, 0.01)
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            print(f"waiting for campaign timed out after {wait:.0f}s: "
                  f"still no {what} under {trace_dir}", file=out,
                  flush=True)
            return False
        time.sleep(min(delay, remaining))
        delay = min(delay * 1.5, 2.0)
        if has_data():
            return True


def monitor_loop(trace_dir: str, interval: float = 1.0,
                 once: bool = False, max_frames: Optional[int] = None,
                 out=None, wait: float = 0.0) -> int:
    """Tail the status file; returns a shell exit status.

    ``once`` renders a single frame (CI smoke / scripting);
    ``max_frames`` bounds the loop for tests.  ``wait`` tolerates a
    campaign that has not started yet: up to that many wall seconds of
    bounded-backoff retry before the first frame, with a "waiting for
    campaign" message instead of an immediate failure.
    """
    import sys

    out = out or sys.stdout
    if wait > 0:
        wait_for_campaign(trace_dir, wait, out=out)
    frames = 0
    while True:
        snap = read_campaign_status(trace_dir)
        print(render_status(snap), file=out, flush=True)
        frames += 1
        if once or (max_frames is not None and frames >= max_frames):
            return 0 if snap else 1
        if snap and snap.get("stop_reason"):
            print("campaign stopped; exiting monitor", file=out)
            return 0
        time.sleep(interval)
