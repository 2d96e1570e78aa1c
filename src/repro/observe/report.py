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
from typing import Dict, List, Tuple

from repro.observe.events import TraceEvent
from repro.observe.monitor import read_campaign_status
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

    Each ``new_path`` event carries the campaign's cumulative
    ``pm_paths``.
    """
    return [(event.vtime, int(event.payload["pm_paths"]))
            for event in events
            if event.kind == "new_path"
            and event.payload.get("pm_paths") is not None]


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
    status = read_campaign_status(trace_dir)
    lines = [f"== campaign report — {trace_dir} =="]
    if status:
        lines.append(f"workload/config   : "
                     f"{status.get('workload') or '?'} / "
                     f"{status.get('config') or '?'}")
        lines.append(f"executions        : {status.get('executions', 0)} "
                     f"(faults {status.get('harness_faults', 0)})")
    lines.append(f"trace events      : {len(events)} merged"
                 + (f", {skipped} damaged lines skipped (torn tails)"
                    if skipped else ""))
    if not events and not status:
        lines.append("nothing to report: no shards or status files found")
        return "\n".join(lines)

    curve = coverage_curve(events)
    if not curve and status:
        # Exec-only traces (heavy sampling) still get a curve from the
        # status samples.
        curve = [(float(t), int(p)) for t, p in status.get("curve") or []]
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
    status = read_campaign_status(trace_dir)
    if status:
        body.append("<h2>Final status</h2><pre>")
        body.append(_html.escape(json.dumps(status, indent=2,
                                            sort_keys=True)))
        body.append("</pre>")
    return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            "<title>campaign report</title></head><body>"
            + "\n".join(body) + "</body></html>")
