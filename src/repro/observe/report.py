"""Post-hoc campaign reports from the trace directory.

``python -m repro report <dir>`` merges the JSONL trace shards
(deterministically, torn tails tolerated — see
:mod:`repro.observe.sink`), reconstructs the coverage-over-time curve
from ``new_path`` events, lays the fault / worker-kill / checkpoint
events on a timeline, and renders either a terminal report or a
self-contained HTML page.  A campaign SIGKILLed mid-write still
reports: its torn tail is skipped, and after a resume its replayed
events deduplicate against the pre-kill ones.
"""

from __future__ import annotations

import html as _html
import json
from typing import Dict, List, Optional, Tuple

from repro.observe.events import TraceEvent
from repro.observe.monitor import read_status, status_files
from repro.observe.sink import merge_shards

#: Event kinds drawn on the incident timeline, with their glyphs.
TIMELINE_KINDS = (
    ("fault_injected", "F"),
    ("worker_kill", "K"),
    ("crash", "C"),
    ("checkpoint", "·"),
)

_TIMELINE_WIDTH = 64


def coverage_curve(events: List[TraceEvent]) -> List[Tuple[float, int]]:
    """Coverage-over-time from ``new_path`` events.

    Each ``new_path`` event carries its writer's cumulative
    ``pm_paths``.  A campaign writes one shard, so this is its curve;
    should a directory hold several writers' shards, the curve takes at
    each instant the sum of the latest per-writer values.
    """
    latest: Dict[int, int] = {}
    curve: List[Tuple[float, int]] = []
    for event in events:
        if event.kind != "new_path":
            continue
        pm = event.payload.get("pm_paths")
        if pm is None:
            continue
        latest[event.member] = int(pm)
        curve.append((event.vtime, sum(latest.values())))
    return curve


def event_counts(events: List[TraceEvent]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


def timeline_rows(events: List[TraceEvent],
                  width: int = _TIMELINE_WIDTH) -> List[Tuple[str, str]]:
    """One ``(label, track)`` row per incident kind, vtime-bucketed."""
    if not events:
        return []
    span = max(e.vtime for e in events) or 1.0
    rows: List[Tuple[str, str]] = []
    for kind, glyph in TIMELINE_KINDS:
        marks = [e.vtime for e in events if e.kind == kind]
        if not marks:
            continue
        track = [" "] * width
        for vtime in marks:
            slot = min(width - 1, int(vtime / span * width))
            track[slot] = glyph
        rows.append((f"{kind} ({len(marks)})", "".join(track)))
    return rows


# ----------------------------------------------------------------------
# Terminal report
# ----------------------------------------------------------------------
def render_report(trace_dir: str) -> str:
    """The terminal campaign report for one trace directory."""
    from repro.analysis.figures import sparkline

    events, skipped = merge_shards(trace_dir)
    statuses = [s for s in (read_status(p)
                            for p in status_files(trace_dir))
                if s is not None]
    lines = [f"== campaign report — {trace_dir} =="]
    if statuses:
        head = statuses[0]
        lines.append(f"workload/config   : "
                     f"{head.get('workload') or '?'} / "
                     f"{head.get('config') or '?'}")
        lines.append(f"members           : {len(statuses)} "
                     f"(executions {sum(s.get('executions', 0) for s in statuses)}, "
                     f"faults {sum(s.get('harness_faults', 0) for s in statuses)})")
    lines.append(f"trace events      : {len(events)} merged"
                 + (f", {skipped} damaged lines skipped (torn tails)"
                    if skipped else ""))
    if not events and not statuses:
        lines.append("nothing to report: no shards or status files found")
        return "\n".join(lines)

    curve = coverage_curve(events)
    if not curve and statuses:
        # Exec-only traces (heavy sampling) still get a curve from the
        # status samples.
        merged: List[Tuple[float, int]] = []
        for snap in statuses:
            merged.extend((float(t), int(p))
                          for t, p in snap.get("curve") or [])
        curve = sorted(merged)
    if curve:
        values = [paths for _, paths in curve]
        lines.append("-- PM path coverage over virtual time --")
        lines.append(f"{'':4s}{sparkline(values, max(values))} "
                     f"peak={max(values)} final={values[-1]} "
                     f"span=0.0..{curve[-1][0]:.3f}vs")
    rows = timeline_rows(events)
    if rows:
        lines.append("-- event timeline (virtual time, left=start) --")
        for label, track in rows:
            lines.append(f"{label:20s} |{track}|")
    counts = event_counts(events)
    if counts:
        lines.append("-- event counts --")
        lines.append("  ".join(f"{kind}={counts[kind]}"
                               for kind in sorted(counts)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML report
# ----------------------------------------------------------------------
def _svg_curve(curve: List[Tuple[float, int]],
               width: int = 640, height: int = 160) -> str:
    if not curve:
        return "<p>no coverage curve</p>"
    span = curve[-1][0] or 1.0
    peak = max(p for _, p in curve) or 1
    points = " ".join(
        f"{t / span * width:.1f},{height - p / peak * (height - 10):.1f}"
        for t, p in curve)
    return (f'<svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            f'<polyline fill="none" stroke="#2b6cb0" stroke-width="2" '
            f'points="{points}"/></svg>')


def render_html_report(trace_dir: str) -> str:
    """Self-contained HTML variant of :func:`render_report`."""
    events, skipped = merge_shards(trace_dir)
    curve = coverage_curve(events)
    counts = event_counts(events)
    rows = timeline_rows(events)
    body = [f"<h1>Campaign report — {_html.escape(trace_dir)}</h1>",
            f"<p>{len(events)} events merged; {skipped} damaged lines "
            f"skipped.</p>",
            "<h2>PM path coverage over virtual time</h2>",
            _svg_curve(curve),
            "<h2>Event timeline</h2>"]
    if rows:
        body.append("<pre>")
        body.extend(f"{_html.escape(label):20s} |{_html.escape(track)}|"
                    for label, track in rows)
        body.append("</pre>")
    body.append("<h2>Event counts</h2><table border='1'>")
    body.append("<tr><th>kind</th><th>count</th></tr>")
    body.extend(f"<tr><td>{_html.escape(kind)}</td><td>{counts[kind]}</td>"
                f"</tr>" for kind in sorted(counts))
    body.append("</table>")
    statuses = [s for s in (read_status(p)
                            for p in status_files(trace_dir))
                if s is not None]
    if statuses:
        body.append("<h2>Final member status</h2><pre>")
        body.append(_html.escape(json.dumps(statuses, indent=2,
                                            sort_keys=True)))
        body.append("</pre>")
    return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            "<title>campaign report</title></head><body>"
            + "\n".join(body) + "</body></html>")
