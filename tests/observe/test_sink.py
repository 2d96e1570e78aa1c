"""Rotating JSONL shards: torn tails, rotation order, deterministic merge."""

import os

from repro.observe.events import TraceEvent
from repro.observe.sink import (SHARD_NAME, JsonlTraceSink, merge_shards,
                                read_events, shard_files)


def _events(seqs, kind="exec", vtime=None):
    return [TraceEvent(kind=kind, vtime=vtime if vtime is not None else s * 0.1,
                       seq=s) for s in seqs]


class TestWriteSide:
    def test_append_only_across_batches(self, tmp_path):
        path = str(tmp_path / "trace-solo.jsonl")
        sink = JsonlTraceSink(path)
        sink.write_events(_events([0, 1]))
        sink.write_events(_events([2]))
        events, skipped = read_events(path)
        assert skipped == 0
        assert [e.seq for e in events] == [0, 1, 2]
        assert sink.lines_written == 3

    def test_empty_batch_writes_nothing(self, tmp_path):
        path = str(tmp_path / "trace-solo.jsonl")
        JsonlTraceSink(path).write_events([])
        assert not os.path.exists(path)

    def test_rotation_renames_full_shard_and_continues(self, tmp_path):
        path = str(tmp_path / "trace-solo.jsonl")
        sink = JsonlTraceSink(path, rotate_bytes=1)
        sink.write_events(_events([0]))
        sink.write_events(_events([1]))  # rotates .1, then writes
        sink.write_events(_events([2]))  # rotates .2
        assert os.path.exists(path + ".1")
        assert os.path.exists(path + ".2")
        merged, _ = merge_shards(str(tmp_path))
        assert [e.seq for e in merged] == [0, 1, 2]


class TestRotationCrashSafety:
    def test_rotation_never_fills_a_hole(self, tmp_path):
        # `.2` vanished (crash or cleanup) while `.3` survived: the next
        # rotation must take `.4`, not reuse `.2` — merge order sorts
        # rotations numerically, so filling the hole would put newer
        # events before older ones.
        path = str(tmp_path / "trace-solo.jsonl")
        for suffix in (".1", ".3"):
            with open(path + suffix, "w", encoding="utf-8") as fh:
                fh.write(_events([9])[0].to_json() + "\n")
        sink = JsonlTraceSink(path, rotate_bytes=1)
        sink.write_events(_events([0]))
        sink.write_events(_events([1]))  # rotates the live shard
        assert os.path.exists(path + ".4")
        assert not os.path.exists(path + ".2")

    def test_rotation_rename_goes_through_the_seam(self, tmp_path):
        # The rotation rename is crash-critical (a lost rename after the
        # next batch's fsync would reorder the stream), so it must route
        # through replace_durable -> the VFS seam, where the durability
        # auditor can see and crash-test it.
        from repro._vfs import install_vfs
        from repro.audit.trace import TracingVFS

        path = str(tmp_path / "trace-solo.jsonl")
        sink = JsonlTraceSink(path, rotate_bytes=1)
        sink.write_events(_events([0]))
        tracer = TracingVFS(str(tmp_path))
        old = install_vfs(tracer)
        try:
            sink.write_events(_events([1]))
        finally:
            install_vfs(old)
        kinds = [op.kind for op in tracer.ops]
        assert kinds == ["replace", "fsync_dir", "append", "fsync"]

    def test_merge_tolerates_a_missing_rotation(self, tmp_path):
        path = str(tmp_path / "trace-solo.jsonl")
        sink = JsonlTraceSink(path, rotate_bytes=1)
        for s in (0, 1, 2):
            sink.write_events(_events([s]))
        os.remove(path + ".2")  # hole in the rotation sequence
        merged, skipped = merge_shards(str(tmp_path))
        assert skipped == 0
        assert [e.seq for e in merged] == [0, 2]


class TestReadSide:
    def test_missing_file_reads_empty(self, tmp_path):
        assert read_events(str(tmp_path / "nope.jsonl")) == ([], 0)

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "trace-solo.jsonl")
        JsonlTraceSink(path).write_events(_events([0, 1]))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"exec","vtime":9.9,"se')  # SIGKILL mid-line
        events, skipped = read_events(path)
        assert [e.seq for e in events] == [0, 1]
        assert skipped == 1

    def test_damaged_middle_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "trace-solo.jsonl")
        lines = [e.to_json() for e in _events([0, 1, 2])]
        lines[1] = lines[1][:10]  # bit-rot the middle
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        events, skipped = read_events(path)
        assert [e.seq for e in events] == [0, 2]
        assert skipped == 1


class TestMerge:
    def test_merge_dedups_replayed_tail_keeping_first(self, tmp_path):
        # The campaign was killed after seq 3 and resumed from seq 2:
        # the shard contains 0..3 then the replayed 2..4.
        path = str(tmp_path / "trace-solo.jsonl")
        sink = JsonlTraceSink(path)
        sink.write_events(_events([0, 1, 2, 3]))
        sink.write_events(_events([2, 3, 4]))
        merged, _ = merge_shards(str(tmp_path))
        assert [e.seq for e in merged] == [0, 1, 2, 3, 4]

    def test_merge_sorts_by_vtime_then_seq(self, tmp_path):
        JsonlTraceSink(str(tmp_path / SHARD_NAME)).write_events(
            _events([0], vtime=2.0) + _events([2], vtime=1.0)
            + _events([1], vtime=1.0))
        merged, _ = merge_shards(str(tmp_path))
        assert [(e.vtime, e.seq) for e in merged] == [
            (1.0, 1), (1.0, 2), (2.0, 0)]

    def test_merge_ignores_foreign_files(self, tmp_path):
        JsonlTraceSink(str(tmp_path / "trace-solo.jsonl")).write_events(
            _events([0]))
        (tmp_path / "status.json").write_text("{}")
        (tmp_path / "notes.txt").write_text("hello")
        merged, skipped = merge_shards(str(tmp_path))
        assert len(merged) == 1 and skipped == 0

    def test_rotations_are_listed_before_live_shard(self, tmp_path):
        # Nothing writes per-member shards any more, so none is read.
        for name in ("trace-solo.jsonl", "trace-solo.jsonl.2",
                     "trace-solo.jsonl.1", "trace-m1.jsonl"):
            (tmp_path / name).write_text("")
        names = [os.path.basename(p) for p in shard_files(str(tmp_path))]
        assert names == ["trace-solo.jsonl.1", "trace-solo.jsonl.2",
                         "trace-solo.jsonl"]

    def test_missing_dir_merges_empty(self, tmp_path):
        assert merge_shards(str(tmp_path / "absent")) == ([], 0)
