"""Live status publication and the terminal monitor."""

import io
import json

import pytest

from repro.fuzz.stats import CoverageSample, FuzzStats
from repro.observe.monitor import (StatusWriter, monitor_loop,
                                   read_campaign_status, read_status,
                                   render_status, status_snapshot)


def _stats(pm_paths=10):
    stats = FuzzStats(config_name="PMFuzz", workload_name="btree")
    stats.executions = 100
    stats.record(CoverageSample(vtime=1.0, executions=100,
                                pm_paths=pm_paths, branch_edges=20,
                                queue_size=5, images=3))
    return stats


class TestSnapshot:
    def test_snapshot_carries_live_fields_and_curve(self):
        snap = status_snapshot(_stats(), vclock=2.0)
        assert snap["workload"] == "btree"
        assert snap["executions"] == 100
        assert snap["execs_per_vsec"] == 50.0
        assert snap["pm_paths"] == 10
        assert snap["curve"] == [[1.0, 10]]
        assert snap["written_at"] > 0

    def test_snapshot_of_empty_campaign(self):
        snap = status_snapshot(FuzzStats(), vclock=0.0)
        assert snap["pm_paths"] == 0
        assert snap["execs_per_vsec"] == 0.0
        assert snap["curve"] == []


class TestStatusWriter:
    def test_writes_on_virtual_cadence_only(self, tmp_path):
        writer = StatusWriter(str(tmp_path / "status.json"), every_vtime=1.0)
        assert writer.maybe_write(_stats(), 0.0)
        assert not writer.maybe_write(_stats(), 0.5)  # before next tick
        assert writer.maybe_write(_stats(), 1.0)
        assert writer.writes == 2

    def test_force_overrides_cadence(self, tmp_path):
        writer = StatusWriter(str(tmp_path / "status.json"), every_vtime=10.0)
        writer.maybe_write(_stats(), 0.0)
        assert writer.maybe_write(_stats(pm_paths=11), 0.1, force=True)
        assert read_status(str(tmp_path / "status.json"))["pm_paths"] == 11

    def test_file_is_always_complete_json(self, tmp_path):
        path = str(tmp_path / "status.json")
        writer = StatusWriter(path, every_vtime=0.1)
        for i in range(5):
            writer.maybe_write(_stats(pm_paths=i), i * 0.1)
            json.loads(open(path, encoding="utf-8").read())  # never torn

    def test_cadence_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            StatusWriter(str(tmp_path / "s.json"), every_vtime=0.0)


class TestReaders:
    def test_read_status_absent_or_damaged_is_none(self, tmp_path):
        assert read_status(str(tmp_path / "nope.json")) is None
        bad = tmp_path / "status.json"
        bad.write_text("{torn")
        assert read_status(str(bad)) is None

    def test_campaign_status_reads_only_status_json(self, tmp_path):
        assert read_campaign_status(str(tmp_path)) is None
        for name in ("status-m0.json", "other.json"):
            (tmp_path / name).write_text('{"workload": "stale"}')
        assert read_campaign_status(str(tmp_path)) is None
        (tmp_path / "status.json").write_text('{"workload": "btree"}')
        assert read_campaign_status(str(tmp_path)) == {"workload": "btree"}


class TestRenderAndLoop:
    def test_render_empty_is_helpful(self):
        assert "no status files" in render_status(None)

    def test_render_shows_the_campaign(self):
        text = render_status(status_snapshot(_stats(), 1.0))
        assert "btree / PMFuzz" in text
        assert "execs=    100" in text and "pm=   10" in text
        assert "[running]" in text

    def test_monitor_once_exit_status(self, tmp_path):
        out = io.StringIO()
        assert monitor_loop(str(tmp_path), once=True, out=out) == 1
        StatusWriter(str(tmp_path / "status.json")).maybe_write(
            _stats(), 1.0, force=True)
        out = io.StringIO()
        assert monitor_loop(str(tmp_path), once=True, out=out) == 0
        assert "btree" in out.getvalue()

    def test_monitor_exits_when_all_members_stopped(self, tmp_path):
        stats = _stats()
        stats.stop_reason = "budget"
        StatusWriter(str(tmp_path / "status.json")).maybe_write(
            stats, 1.0, force=True)
        out = io.StringIO()
        assert monitor_loop(str(tmp_path), interval=0.01, out=out) == 0
        assert "stopped" in out.getvalue()


class TestWaitForCampaign:
    """Satellite: monitor/report racing a campaign that has not started
    must retry with backoff and a clear message, never traceback."""

    def test_no_wait_and_no_data_returns_false(self, tmp_path):
        from repro.observe.monitor import wait_for_campaign
        out = io.StringIO()
        assert wait_for_campaign(str(tmp_path / "nope"), 0.0, out=out) \
            is False
        assert out.getvalue() == ""  # no wait requested, no noise

    def test_existing_status_returns_immediately(self, tmp_path):
        from repro.observe.monitor import wait_for_campaign
        StatusWriter(str(tmp_path / "status.json")).maybe_write(
            _stats(), 1.0, force=True)
        assert wait_for_campaign(str(tmp_path), 5.0) is True

    def test_timeout_prints_waiting_message_not_traceback(self, tmp_path):
        from repro.observe.monitor import wait_for_campaign
        out = io.StringIO()
        assert wait_for_campaign(str(tmp_path / "nope"), 0.05, out=out,
                                 poll=0.01) is False
        text = out.getvalue()
        assert "waiting for campaign" in text
        assert "timed out" in text

    def test_data_appearing_mid_wait_is_picked_up(self, tmp_path):
        import threading
        from repro.observe.monitor import wait_for_campaign

        def publish_late():
            StatusWriter(str(tmp_path / "status.json")).maybe_write(
                _stats(), 1.0, force=True)

        timer = threading.Timer(0.05, publish_late)
        timer.start()
        try:
            out = io.StringIO()
            assert wait_for_campaign(str(tmp_path), 5.0, out=out,
                                     poll=0.01) is True
            assert "waiting for campaign" in out.getvalue()
        finally:
            timer.cancel()

    def test_half_written_status_is_ignored_until_valid(self, tmp_path):
        from repro.observe.monitor import wait_for_campaign
        # A torn status.json (not valid JSON) must read as "no data
        # yet", not crash the reader.
        with open(tmp_path / "status.json", "w") as fh:
            fh.write('{"version": 1, "work')
        out = io.StringIO()
        assert wait_for_campaign(str(tmp_path), 0.05, out=out,
                                 poll=0.01) is False
        assert "waiting for campaign" in out.getvalue()

    def test_trace_shards_also_count_as_data(self, tmp_path):
        from repro.observe.monitor import wait_for_campaign
        from repro.observe.sink import SHARD_NAME
        (tmp_path / SHARD_NAME).write_text("")
        assert wait_for_campaign(str(tmp_path), 5.0) is True

    def test_monitor_loop_wait_then_frame(self, tmp_path):
        StatusWriter(str(tmp_path / "status.json")).maybe_write(
            _stats(), 1.0, force=True)
        out = io.StringIO()
        assert monitor_loop(str(tmp_path), once=True, wait=1.0,
                            out=out) == 0
        assert "btree" in out.getvalue()


class TestTornStatusReads:
    """``read_status`` retry policy: a JSON parse failure on an existing
    file is a torn read racing a concurrent writer — retried a bounded
    number of times; absence is answered immediately."""

    TORN = '{"version": 1, "executions"'

    def test_absent_file_is_none_without_retrying(self, tmp_path,
                                                  monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.observe.monitor.time.sleep",
                            sleeps.append)
        assert read_status(str(tmp_path / "status.json")) is None
        assert sleeps == []

    def test_torn_file_healed_by_the_writer_wins_a_retry(self, tmp_path,
                                                         monkeypatch):
        path = str(tmp_path / "status.json")
        with open(path, "w") as fh:
            fh.write(self.TORN)

        def writer_completes(_delay):
            with open(path, "w") as fh:
                json.dump({"version": 1, "executions": 42}, fh)

        monkeypatch.setattr("repro.observe.monitor.time.sleep",
                            writer_completes)
        snapshot = read_status(path)
        assert snapshot == {"version": 1, "executions": 42}

    def test_permanently_torn_file_gives_up_bounded(self, tmp_path,
                                                    monkeypatch):
        path = str(tmp_path / "status.json")
        with open(path, "w") as fh:
            fh.write(self.TORN)
        sleeps = []
        monkeypatch.setattr("repro.observe.monitor.time.sleep",
                            sleeps.append)
        assert read_status(path, retries=3) is None
        assert len(sleeps) == 3  # bounded: retries, then None
