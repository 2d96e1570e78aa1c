"""Post-hoc reports: curve extraction, timelines, torn-shard tolerance."""

from repro.observe.events import TraceEvent
from repro.observe.report import (coverage_curve, event_counts,
                                  render_html_report, render_report,
                                  timeline_rows)
from repro.observe.sink import JsonlTraceSink


def _new_path(vtime, seq, pm):
    return TraceEvent(kind="new_path", vtime=vtime, seq=seq,
                      payload={"pm_paths": pm})


class TestCoverageCurve:
    def test_solo_curve_is_the_member_series(self):
        events = [_new_path(0.5, 0, 3), _new_path(1.0, 1, 7)]
        assert coverage_curve(events) == [(0.5, 3), (1.0, 7)]

    def test_non_new_path_and_payloadless_events_ignored(self):
        events = [TraceEvent(kind="exec", vtime=0.1, seq=0),
                  TraceEvent(kind="new_path", vtime=0.2, seq=1)]
        assert coverage_curve(events) == []


class TestTimeline:
    def test_rows_only_for_present_kinds(self):
        events = [TraceEvent(kind="fault_injected", vtime=0.5, seq=0),
                  TraceEvent(kind="exec", vtime=1.0, seq=1)]
        rows = timeline_rows(events)
        assert len(rows) == 1
        label, track = rows[0]
        assert label == "fault_injected (1)"
        assert track.count("F") == 1

    def test_marks_land_proportionally(self):
        events = [TraceEvent(kind="crash", vtime=0.0, seq=0),
                  TraceEvent(kind="crash", vtime=10.0, seq=1)]
        _, track = timeline_rows(events, width=10)[0]
        assert track[0] == "C" and track[-1] == "C"

    def test_empty_events_no_rows(self):
        assert timeline_rows([]) == []

    def test_counts(self):
        events = [TraceEvent(kind="exec", vtime=0.1, seq=0),
                  TraceEvent(kind="exec", vtime=0.2, seq=1),
                  TraceEvent(kind="crash", vtime=0.3, seq=2)]
        assert event_counts(events) == {"exec": 2, "crash": 1}


class TestRenderedReports:
    def _shard(self, tmp_path, events, name="trace-solo.jsonl"):
        JsonlTraceSink(str(tmp_path / name)).write_events(events)

    def test_empty_dir_reports_nothing_gracefully(self, tmp_path):
        text = render_report(str(tmp_path))
        assert "nothing to report" in text

    def test_report_renders_curve_timeline_and_counts(self, tmp_path):
        self._shard(tmp_path, [
            _new_path(0.5, 0, 3),
            TraceEvent(kind="checkpoint", vtime=0.7, seq=1),
            _new_path(1.0, 2, 7)])
        text = render_report(str(tmp_path))
        assert "peak=7 final=7" in text
        assert "checkpoint (1)" in text
        assert "new_path=2" in text

    def test_report_survives_torn_shard_tail(self, tmp_path):
        self._shard(tmp_path, [_new_path(0.5, 0, 3)])
        with open(tmp_path / "trace-solo.jsonl", "a") as fh:
            fh.write('{"kind":"new_path","vti')  # SIGKILLed mid-write
        text = render_report(str(tmp_path))
        assert "1 damaged lines skipped" in text
        assert "peak=3" in text

    def test_html_report_is_self_contained(self, tmp_path):
        self._shard(tmp_path, [_new_path(0.5, 0, 3)])
        html = render_html_report(str(tmp_path))
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        assert "new_path" in html

    def test_html_report_on_empty_dir(self, tmp_path):
        html = render_html_report(str(tmp_path))
        assert "no coverage curve" in html
