"""Campaign observability: structured tracing, metrics, profiling, live
monitor.

The layer every evaluation figure is read off of:

* :mod:`repro.observe.events` / :mod:`repro.observe.bus` /
  :mod:`repro.observe.sink` — the typed trace stream: bounded ring,
  sampling, rotating crash-safe JSONL shards, deterministic merge;
* :mod:`repro.observe.metrics` — the register-once metrics registry
  snapshotted into :class:`~repro.fuzz.stats.FuzzStats`;
* :mod:`repro.observe.profiler` — per-stage vtime/wall attribution and
  the ``--profile`` breakdown;
* :mod:`repro.observe.monitor` / :mod:`repro.observe.report` — the live
  ``status.json`` tail and the post-hoc campaign report.

The contract with the rest of the system: **observability is a no-op
for determinism**.  Nothing here touches campaign state or campaign
randomness; a seeded campaign's ``comparable()`` stats are bit-identical
with tracing on or off (regression-tested in ``tests/observe``).
"""

from repro.observe.bus import NULL_BUS, TraceBus
from repro.observe.events import EVENT_KINDS, TraceEvent
from repro.observe.metrics import MetricsRegistry
from repro.observe.monitor import (StatusWriter, monitor_loop, read_status,
                                   render_status, status_snapshot)
from repro.observe.profiler import StageProfiler, render_profile
from repro.observe.report import render_html_report, render_report
from repro.observe.sink import JsonlTraceSink, merge_shards, read_events

__all__ = [
    "EVENT_KINDS", "TraceEvent", "TraceBus", "NULL_BUS",
    "JsonlTraceSink", "read_events", "merge_shards",
    "MetricsRegistry",
    "StageProfiler", "render_profile",
    "StatusWriter", "status_snapshot", "read_status", "render_status",
    "monitor_loop", "render_report", "render_html_report",
]
