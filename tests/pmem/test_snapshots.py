"""Single-pass snapshot mechanics and the persistence-domain hot path.

Covers the PR-5 performance layer at its lowest level:

* copy-on-write media snapshots match the persisted view a dedicated
  crash-at-that-point execution would have produced;
* the dedicated FLUSHED set keeps fences O(flushed) without changing
  any observable line-state semantics;
* the no-observer fast path allocates no TraceEvent at all.
"""

from __future__ import annotations

import repro.pmem.persistence as persistence
from repro.errors import SimulatedCrash
from repro.pmem.persistence import (CACHE_LINE, LineState, PersistenceDomain,
                                    TraceEvent)


def scripted_run(domain: PersistenceDomain, rounds: int = 6) -> None:
    """A deterministic store/flush/drain script shared by the tests."""
    for i in range(rounds):
        addr = (i * 192) % (domain.size - 64)
        domain.store(addr, bytes([i + 1]) * 48)
        domain.flush(addr, 48)
        domain.drain()
        # An extra store left pending so the media and volatile views
        # genuinely diverge between fences.
        domain.store((addr + 64) % (domain.size - 16), b"\xEE" * 8)


class TestMediaSnapshots:
    def test_fence_snapshot_matches_crash_at_fence(self):
        for fence in range(3):
            reference = PersistenceDomain(4096)
            reference.crash_at_fence = fence
            try:
                scripted_run(reference)
            except SimulatedCrash:
                pass
            expected = reference.persisted_view()

            planned = PersistenceDomain(4096)
            planned.plan_snapshots(fences=[fence])
            scripted_run(planned)
            snaps = planned.take_snapshots()
            assert len(snaps) == 1
            assert snaps[0].kind == "fence"
            assert snaps[0].index == fence
            assert snaps[0].fences_done == fence + 1
            assert snaps[0].materialize() == expected

    def test_store_snapshot_matches_crash_at_store(self):
        for store in (0, 3, 7):
            reference = PersistenceDomain(4096)
            reference.crash_at_store = store
            try:
                scripted_run(reference)
            except SimulatedCrash:
                pass
            expected = reference.persisted_view()
            expected_fences = reference.fence_count

            planned = PersistenceDomain(4096)
            planned.plan_snapshots(stores=[store])
            scripted_run(planned)
            snaps = planned.take_snapshots()
            assert len(snaps) == 1
            assert snaps[0].kind == "store"
            assert snaps[0].index == store
            assert snaps[0].fences_done == expected_fences
            assert snaps[0].materialize() == expected

    def test_many_snapshots_in_one_pass(self):
        planned = PersistenceDomain(4096)
        planned.plan_snapshots(fences=[0, 2, 4], stores=[1, 5])
        scripted_run(planned)
        snaps = planned.take_snapshots()
        assert [(s.kind, s.index) for s in snaps] == [
            ("fence", 0), ("store", 1), ("fence", 2),
            ("store", 5), ("fence", 4)]

    def test_cow_preserves_early_snapshot_across_later_fences(self):
        domain = PersistenceDomain(1024)
        domain.plan_snapshots(fences=[0])
        domain.store(0, b"A" * CACHE_LINE)
        domain.persist(0, CACHE_LINE)  # fence 0: snapshot taken here
        domain.store(0, b"B" * CACHE_LINE)
        domain.persist(0, CACHE_LINE)  # fence 1 overwrites line 0
        snap = domain.take_snapshots()[0]
        assert domain.persisted_view()[:CACHE_LINE] == b"B" * CACHE_LINE
        assert snap.materialize()[:CACHE_LINE] == b"A" * CACHE_LINE

    def test_unreached_indices_produce_no_snapshot(self):
        domain = PersistenceDomain(1024)
        domain.plan_snapshots(fences=[50], stores=[99])
        scripted_run(domain, rounds=2)
        assert domain.take_snapshots() == []

    def test_snapshots_off_by_default(self):
        domain = PersistenceDomain(1024)
        scripted_run(domain, rounds=2)
        assert domain.take_snapshots() == []


class TestFlushedSet:
    def test_fence_only_writes_flushed_lines(self):
        domain = PersistenceDomain(1024)
        domain.store(0, b"\x11" * 16)  # stays dirty
        domain.store(128, b"\x22" * 16)
        domain.flush(128, 16)
        domain.drain()
        media = domain.persisted_view()
        assert media[0:16] == b"\x00" * 16
        assert media[128:144] == b"\x22" * 16
        assert domain.line_state(0) is LineState.DIRTY
        assert domain.line_state(128) is LineState.CLEAN

    def test_flushed_set_tracks_states(self):
        domain = PersistenceDomain(1024)
        domain.store(0, b"\x11" * 8)
        assert domain._flushed == set()
        domain.flush(0, 8)
        assert domain._flushed == {0}
        # A store to a flushed line re-dirties it: it must leave the
        # flushed index or the fence would persist unflushed data.
        domain.store(0, b"\x33" * 8)
        assert domain._flushed == set()
        assert domain.line_state(0) is LineState.DIRTY
        domain.flush(0, 8)
        domain.drain()
        assert domain._flushed == set()
        assert domain.persisted_view()[:8] == b"\x33" * 8

    def test_redundant_flush_does_not_enter_flushed_set(self):
        domain = PersistenceDomain(1024)
        domain.flush(0, 64)
        assert domain._flushed == set()


class TestNoObserverFastPath:
    def _counting(self, monkeypatch):
        created = []

        class CountingEvent(TraceEvent):
            def __init__(self, *args, **kwargs):
                created.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(persistence, "TraceEvent", CountingEvent)
        return created

    def test_store_flush_fence_allocate_no_event(self, monkeypatch):
        created = self._counting(monkeypatch)
        domain = PersistenceDomain(1024)
        domain.store(0, b"\x01" * 8)
        domain.flush(0, 8)
        domain.drain()
        domain.load(0, 8)
        assert created == []
        # Sequence numbering must advance exactly as if events existed:
        # store, flush, fence, load = 4 events' worth of sequence.
        assert domain.seq == 4

    def test_events_allocated_once_observed(self, monkeypatch):
        created = self._counting(monkeypatch)
        domain = PersistenceDomain(1024)
        seen = []
        domain.add_observer(seen.append)
        domain.store(0, b"\x01" * 8)
        domain.flush(0, 8)
        domain.drain()
        assert created  # events constructed again
        assert [e.kind.value for e in seen] == ["store", "flush", "fence"]
        assert [e.seq for e in seen] == [0, 1, 2]

    def test_sequence_identical_with_and_without_observer(self):
        bare = PersistenceDomain(2048)
        observed = PersistenceDomain(2048)
        observed.add_observer(lambda e: None)
        scripted_run(bare)
        scripted_run(observed)
        assert bare.seq == observed.seq
        assert bare.persisted_view() == observed.persisted_view()
