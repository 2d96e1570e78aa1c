"""Tests for the persistence-domain simulation."""

import pickle

import pytest

from repro.errors import PMemError, SimulatedCrash
from repro.pmem.persistence import (
    CACHE_LINE,
    LineState,
    PersistenceDomain,
    TraceEvent,
    TraceEventKind,
)


def make_domain(size=4096, initial=None):
    return PersistenceDomain(size, initial)


class TestBasicStoreLoad:
    def test_store_then_load_returns_data(self):
        d = make_domain()
        d.store(0, b"hello")
        assert d.load(0, 5) == b"hello"

    def test_load_unwritten_is_zero(self):
        d = make_domain()
        assert d.load(100, 4) == b"\0\0\0\0"

    def test_initial_contents_visible(self):
        d = make_domain(size=8, initial=b"ABCDEFGH")
        assert d.load(0, 8) == b"ABCDEFGH"

    def test_initial_contents_are_persistent(self):
        d = make_domain(size=8, initial=b"ABCDEFGH")
        assert d.persisted_view() == b"ABCDEFGH"

    def test_out_of_bounds_store_rejected(self):
        d = make_domain(size=64)
        with pytest.raises(PMemError):
            d.store(60, b"too long")

    def test_out_of_bounds_load_rejected(self):
        d = make_domain(size=64)
        with pytest.raises(PMemError):
            d.load(63, 2)

    def test_negative_address_rejected(self):
        d = make_domain()
        with pytest.raises(PMemError):
            d.load(-1, 1)

    def test_zero_size_domain_rejected(self):
        with pytest.raises(PMemError):
            PersistenceDomain(0)

    def test_mismatched_initial_rejected(self):
        with pytest.raises(PMemError):
            PersistenceDomain(16, b"short")


class TestPersistenceSemantics:
    def test_store_does_not_reach_media(self):
        d = make_domain()
        d.store(0, b"x")
        assert d.persisted_view()[0] == 0

    def test_flush_alone_does_not_reach_media(self):
        d = make_domain()
        d.store(0, b"x")
        d.flush(0, 1)
        assert d.persisted_view()[0] == 0

    def test_flush_plus_drain_reaches_media(self):
        d = make_domain()
        d.store(0, b"x")
        d.flush(0, 1)
        d.drain()
        assert d.persisted_view()[0] == ord("x")

    def test_drain_without_flush_persists_nothing(self):
        d = make_domain()
        d.store(0, b"x")
        d.drain()
        assert d.persisted_view()[0] == 0

    def test_persist_is_flush_plus_drain(self):
        d = make_domain()
        d.store(10, b"y")
        d.persist(10, 1)
        assert d.persisted_view()[10] == ord("y")

    def test_whole_cache_line_persists_together(self):
        d = make_domain()
        d.store(0, b"a")
        d.store(30, b"b")  # same line
        d.flush(0, 1)
        d.drain()
        # Flushing any byte of the line writes back the whole line.
        assert d.persisted_view()[30] == ord("b")

    def test_different_lines_are_independent(self):
        d = make_domain()
        d.store(0, b"a")
        d.store(CACHE_LINE, b"b")
        d.persist(0, 1)
        assert d.persisted_view()[CACHE_LINE] == 0

    def test_line_states_transition(self):
        d = make_domain()
        assert d.line_state(0) is LineState.CLEAN
        d.store(0, b"x")
        assert d.line_state(0) is LineState.DIRTY
        d.flush(0, 1)
        assert d.line_state(0) is LineState.FLUSHED
        d.drain()
        assert d.line_state(0) is LineState.CLEAN

    def test_store_after_flush_makes_dirty_again(self):
        d = make_domain()
        d.store(0, b"x")
        d.flush(0, 1)
        d.store(0, b"y")
        assert d.line_state(0) is LineState.DIRTY

    def test_fence_count_increments(self):
        d = make_domain()
        assert d.fence_count == 0
        d.drain()
        d.drain()
        assert d.fence_count == 2

    def test_pending_lines_reported(self):
        d = make_domain()
        d.store(0, b"x")
        d.store(CACHE_LINE * 3, b"y")
        pending = d.pending_lines()
        assert pending == {0: LineState.DIRTY, 3: LineState.DIRTY}


class TestCrashAtFence:
    def test_crash_raised_at_configured_fence(self):
        d = make_domain()
        d.crash_at_fence = 1
        d.drain()  # fence 0
        with pytest.raises(SimulatedCrash) as exc_info:
            d.drain()  # fence 1
        assert exc_info.value.fence_index == 1

    def test_crash_fence_takes_effect_before_raise(self):
        d = make_domain()
        d.crash_at_fence = 0
        d.store(0, b"x")
        d.flush(0, 1)
        with pytest.raises(SimulatedCrash):
            d.drain()
        # The fence persisted the flushed line *before* the crash.
        assert d.persisted_view()[0] == ord("x")

    def test_no_crash_when_unset(self):
        d = make_domain()
        for _ in range(10):
            d.drain()


class TestTraceEvents:
    def test_events_emitted_in_order(self):
        d = make_domain()
        events = []
        d.add_observer(events.append)
        d.store(0, b"x", site="s1")
        d.flush(0, 1, site="s2")
        d.drain(site="s3")
        kinds = [e.kind for e in events]
        assert kinds == [TraceEventKind.STORE, TraceEventKind.FLUSH,
                         TraceEventKind.FENCE]
        assert [e.site for e in events] == ["s1", "s2", "s3"]

    def test_sequence_numbers_monotone(self):
        d = make_domain()
        events = []
        d.add_observer(events.append)
        d.store(0, b"x")
        d.load(0, 1)
        d.persist(0, 1)
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_redundant_flush_annotated(self):
        d = make_domain()
        events = []
        d.add_observer(events.append)
        d.flush(0, 1)  # nothing dirty: redundant
        assert any(e.kind is TraceEventKind.FLUSH_REDUNDANT for e in events)

    def test_effective_flush_not_annotated(self):
        d = make_domain()
        events = []
        d.add_observer(events.append)
        d.store(0, b"x")
        d.flush(0, 1)
        assert not any(e.kind is TraceEventKind.FLUSH_REDUNDANT
                       for e in events)

    def test_double_flush_without_store_is_redundant(self):
        d = make_domain()
        d.store(0, b"x")
        d.flush(0, 1)
        events = []
        d.add_observer(events.append)
        d.flush(0, 1)  # line already FLUSHED
        assert any(e.kind is TraceEventKind.FLUSH_REDUNDANT for e in events)

    def test_observer_removal(self):
        d = make_domain()
        events = []
        d.add_observer(events.append)
        d.remove_observer(events.append)
        d.store(0, b"x")
        assert events == []


class TestTraceEventValue:
    """TraceEvent is a slotted class, not a frozen dataclass; it keeps
    the dataclass's value semantics."""

    def _event(self, **overrides):
        fields = dict(kind=TraceEventKind.STORE, addr=64, size=8, seq=3,
                      site="w.py:10")
        fields.update(overrides)
        return TraceEvent(**fields)

    def test_keyword_and_positional_construction_agree(self):
        event = self._event()
        assert (event.kind, event.addr, event.size, event.seq, event.site) \
            == (TraceEventKind.STORE, 64, 8, 3, "w.py:10")
        assert TraceEvent(TraceEventKind.STORE, 64, 8, 3, "w.py:10") == event

    def test_site_defaults_to_empty(self):
        event = TraceEvent(kind=TraceEventKind.FENCE, addr=0, size=0, seq=1)
        assert event.site == ""

    def test_missing_field_rejected(self):
        with pytest.raises(TypeError):
            TraceEvent(kind=TraceEventKind.FENCE, addr=0, size=0)

    @pytest.mark.parametrize("name", ["kind", "addr", "size", "seq", "site",
                                      "extra"])
    def test_assignment_raises(self, name):
        event = self._event()
        with pytest.raises(AttributeError):
            setattr(event, name, 1)
        assert event == self._event()

    def test_deletion_raises(self):
        event = self._event()
        with pytest.raises(AttributeError):
            del event.addr
        assert event.addr == 64

    def test_equality_is_by_value(self):
        assert self._event() == self._event()
        for change in (dict(kind=TraceEventKind.LOAD), dict(addr=65),
                       dict(size=9), dict(seq=4), dict(site="other")):
            assert self._event() != self._event(**change)
        assert self._event() != (TraceEventKind.STORE, 64, 8, 3, "w.py:10")

    def test_hash_is_by_value(self):
        assert hash(self._event()) == hash(self._event())
        assert len({self._event(), self._event(), self._event(seq=4)}) == 2

    def test_pickle_round_trip(self):
        event = self._event()
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(event, protocol))
            assert restored == event
            assert type(restored) is TraceEvent
            with pytest.raises(AttributeError):
                restored.seq = 0

    def test_repr_names_every_field(self):
        text = repr(self._event())
        for part in ("kind=", "addr=64", "size=8", "seq=3",
                     "site='w.py:10'"):
            assert part in text
