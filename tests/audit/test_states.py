"""Crash-state enumeration against hand-built op traces."""

import os

from repro.audit.states import (CrashState, CrashStateEnumerator,
                                TORN_FRACTIONS)
from repro.audit.trace import FsOp


def _trace(*specs):
    """Build a trace from (kind, path[, dest-or-data]) tuples."""
    ops = []
    for i, spec in enumerate(specs):
        kind, path = spec[0], spec[1]
        dest = data = None
        if kind in ("write", "append"):
            data = spec[2] if len(spec) > 2 else b"payload"
        elif len(spec) > 2:
            dest = spec[2]
        ops.append(FsOp(index=i, kind=kind, path=path, dest=dest, data=data))
    return ops


def _ids(states):
    return [s.state_id for s in states]


class TestEnumerate:
    def test_one_prefix_state_per_op_plus_completed(self):
        ops = _trace(("write", "a"), ("fsync", "a"), ("fsync_dir", ""))
        states = CrashStateEnumerator(ops).enumerate()
        prefixes = [s for s in states if not s.dropped and s.torn is None]
        assert _ids(prefixes) == ["p000", "p001", "p002", "p003"]

    def test_torn_states_only_for_final_write(self):
        ops = _trace(("write", "a"), ("fsync", "a"))
        states = CrashStateEnumerator(ops).enumerate()
        torn = [s for s in states if s.torn is not None]
        # Only the cut ending in the write tears, once per fraction.
        assert len(torn) == len(TORN_FRACTIONS)
        assert all(s.cut == 1 and s.torn[0] == 0 for s in torn)
        assert [s.torn[1] for s in torn] == list(TORN_FRACTIONS)

    def test_fsynced_write_is_not_droppable(self):
        ops = _trace(("write", "a"), ("fsync", "a"))
        states = CrashStateEnumerator(ops).enumerate()
        # At cut 2 the write is pinned; at cut 1 it is the torn/absent
        # candidate.
        assert "p002-d000" not in _ids(states)
        assert "p001-d000" in _ids(states)

    def test_unsynced_rename_is_droppable(self):
        ops = _trace(("replace", "a", "b"),)
        states = CrashStateEnumerator(ops).enumerate()
        assert "p001-d000" in _ids(states)

    def test_fsync_dir_pins_same_dir_rename(self):
        ops = _trace(("replace", "a", "b"), ("fsync_dir", ""))
        states = CrashStateEnumerator(ops).enumerate()
        assert "p002-d000" not in _ids(states)

    def test_link_pinned_by_destination_dir_fsync_only(self):
        # link(hot/k -> cold/k): only cold's entries changed, so an
        # fsync of cold pins it and an fsync of hot does not.
        pinned = _trace(("link", "hot/k", "cold/k"), ("fsync_dir", "cold"))
        unpinned = _trace(("link", "hot/k", "cold/k"), ("fsync_dir", "hot"))
        assert "p002-d000" not in _ids(
            CrashStateEnumerator(pinned).enumerate())
        assert "p002-d000" in _ids(
            CrashStateEnumerator(unpinned).enumerate())

    def test_cross_dir_replace_pinned_by_both_directories(self):
        # A replace across directories changes both parents' entries:
        # an fsync of either one alone leaves it droppable.
        one = _trace(("replace", "a/f", "b/f"), ("fsync_dir", "b"))
        both = _trace(("replace", "a/f", "b/f"), ("fsync_dir", "b"),
                      ("fsync_dir", "a"))
        assert "p002-d000" in _ids(CrashStateEnumerator(one).enumerate())
        assert "p003-d000" not in _ids(
            CrashStateEnumerator(both).enumerate())

    def test_write_then_unlink_drop_is_invisible(self):
        ops = _trace(("write", "a"), ("unlink", "a"))
        ids = _ids(CrashStateEnumerator(ops).enumerate())
        # Dropping a write whose file is gone anyway adds no coverage.
        assert "p002-d000" not in ids

    def test_write_then_rename_away_stays_visible(self):
        ops = _trace(("write", "a"), ("replace", "a", "b"))
        ids = _ids(CrashStateEnumerator(ops).enumerate())
        # Content travels with the rename: dropping the write matters.
        assert "p002-d000" in ids

    def test_drop_all_state_when_multiple_unpinned(self):
        ops = _trace(("write", "a"), ("write", "b"))
        states = CrashStateEnumerator(ops).enumerate()
        dall = [s for s in states if s.state_id == "p002-dall"]
        assert len(dall) == 1 and dall[0].dropped == (0, 1)


class TestSample:
    def _states(self, n):
        return [CrashState(state_id=f"p{i:03d}", cut=i) for i in range(n)]

    def test_budget_zero_is_exhaustive(self):
        states = self._states(7)
        enum = CrashStateEnumerator([])
        assert enum.sample(states, 0) == states
        assert enum.sample(states, 100) == states

    def test_budget_one_keeps_the_completed_run(self):
        states = self._states(7)
        assert CrashStateEnumerator([]).sample(states, 1) == [states[-1]]

    def test_sampling_is_deterministic_and_spans_endpoints(self):
        states = self._states(50)
        enum = CrashStateEnumerator([])
        once = enum.sample(states, 7)
        again = enum.sample(states, 7)
        assert _ids(once) == _ids(again)
        assert once[0] is states[0] and once[-1] is states[-1]
        assert len(once) <= 7


class TestMaterialize:
    def _materialize(self, ops, state, tmp_path):
        snap = tmp_path / "snap"
        snap.mkdir(exist_ok=True)
        target = str(tmp_path / "work")
        CrashStateEnumerator(ops).materialize(state, str(snap), target)
        return target

    def test_prefix_replays_only_surviving_ops(self, tmp_path):
        ops = _trace(("write", "a", b"one"), ("write", "b", b"two"))
        work = self._materialize(ops, CrashState("p001", cut=1), tmp_path)
        assert os.path.exists(os.path.join(work, "a"))
        assert not os.path.exists(os.path.join(work, "b"))

    def test_torn_write_truncates_payload(self, tmp_path):
        ops = _trace(("write", "a", b"0123456789"),)
        work = self._materialize(
            ops, CrashState("p001-t3", cut=1, torn=(0, 0.5)), tmp_path)
        with open(os.path.join(work, "a"), "rb") as fh:
            assert fh.read() == b"01234"

    def test_dropped_write_cascades_through_rename(self, tmp_path):
        # Dropping the write leaves nothing for the rename to move: the
        # rename skips instead of erroring, as on a real disk.
        ops = _trace(("write", "a", b"v"), ("replace", "a", "b"))
        work = self._materialize(
            ops, CrashState("p002-d000", cut=2, dropped=(0,)), tmp_path)
        assert not os.path.exists(os.path.join(work, "a"))
        assert not os.path.exists(os.path.join(work, "b"))
