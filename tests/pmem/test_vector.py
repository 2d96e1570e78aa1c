"""Persistence domain against a plain reference model of the cache-line rules.

The module keeps its name from the retired numpy ("vector") domain it
used to compare with :class:`PersistenceDomain`.  The same operation
sequences now run on the domain and on :class:`RefModel` — a
deliberately naive restatement of the rules (a store dirties every line
it spans, a flush moves dirty lines to flushed, a fence copies flushed
lines to the media) — and every observable must agree: views, pending
lines, inconsistent ranges, counters and trace events.
"""

from __future__ import annotations

import inspect
import random

import pytest

from repro.errors import PMemError, SimulatedCrash
from repro.pmdk.pool import PmemObjPool
from repro.pmem.persistence import (
    CACHE_LINE,
    LineState,
    PersistenceDomain,
    TraceEventKind,
)

SIZE = 4096


class RefModel:
    """Byte-at-a-time model of the volatile cache in front of the media."""

    def __init__(self, size=SIZE, initial=None):
        self.media = bytearray(initial) if initial is not None else bytearray(size)
        self.volatile = bytearray(self.media)
        self.lines = {}
        self.stores = 0
        self.fences = 0
        self.events = []

    def _span(self, addr, size):
        return range(addr // CACHE_LINE, (addr + size - 1) // CACHE_LINE + 1) \
            if size else range(0)

    def store(self, addr, data, site=""):
        self.volatile[addr:addr + len(data)] = data
        for line in self._span(addr, len(data)):
            self.lines[line] = LineState.DIRTY
        self.stores += 1
        self.events.append((TraceEventKind.STORE, addr, len(data), site))

    def flush(self, addr, size, site=""):
        redundant = True
        for line in self._span(addr, size):
            if self.lines.get(line) is LineState.DIRTY:
                self.lines[line] = LineState.FLUSHED
                redundant = False
        self.events.append((TraceEventKind.FLUSH, addr, size, site))
        if redundant:
            self.events.append(
                (TraceEventKind.FLUSH_REDUNDANT, addr, size, site))

    def drain(self, site=None):
        for line, state in list(self.lines.items()):
            if state is LineState.FLUSHED:
                start = line * CACHE_LINE
                self.media[start:start + CACHE_LINE] = \
                    self.volatile[start:start + CACHE_LINE]
                del self.lines[line]
        self.fences += 1
        self.events.append((TraceEventKind.FENCE, 0, 0, site or ""))

    def persist(self, addr, size, site=""):
        self.flush(addr, size, site)
        self.drain(site)

    def inconsistent_ranges(self):
        ranges, start = [], None
        for i, (v, m) in enumerate(zip(self.volatile, self.media)):
            if v != m:
                if start is None:
                    start = i
            elif start is not None:
                ranges.append((start, i - start))
                start = None
        if start is not None:
            ranges.append((start, len(self.media) - start))
        return ranges


def observed(domain):
    events = []
    domain.add_observer(events.append)
    return events


def event_tuples(events):
    return [(e.kind, e.addr, e.size, e.site) for e in events]


def assert_same_state(domain, model, events):
    assert domain.volatile_view() == bytes(model.volatile)
    assert domain.persisted_view() == bytes(model.media)
    assert domain.pending_lines() == model.lines
    assert domain.inconsistent_ranges() == model.inconsistent_ranges()
    assert domain.store_count == model.stores
    assert domain.fence_count == model.fences
    assert event_tuples(events) == model.events
    assert [e.seq for e in events] == list(range(len(events)))
    assert domain.seq == len(events)


def mirror(op_list, size=SIZE):
    """Run one op sequence on the domain and the model; return both."""
    domain, model = PersistenceDomain(size), RefModel(size)
    events = observed(domain)
    for op in op_list:
        kind = op[0]
        for target in (domain, model):
            if kind == "store":
                target.store(op[1], op[2], site=op[3] if len(op) > 3 else "")
            elif kind == "flush":
                target.flush(op[1], op[2])
            elif kind == "drain":
                target.drain(op[1] if len(op) > 1 else None)
            elif kind == "persist":
                target.persist(op[1], op[2])
    assert_same_state(domain, model, events)
    return domain, model


class TestMirroredSequences:
    def test_store_flush_drain_basic(self):
        domain, _ = mirror([("store", 0, b"hello"), ("flush", 0, 5),
                            ("drain",)])
        assert domain.persisted_view()[:5] == b"hello"

    def test_multi_line_store_spans_lines(self):
        payload = bytes(range(200))
        domain, _ = mirror([("store", CACHE_LINE - 7, payload)])
        assert sorted(domain.pending_lines()) == [0, 1, 2, 3, 4]
        mirror([("store", CACHE_LINE - 7, payload),
                ("flush", CACHE_LINE - 7, len(payload)), ("drain",)])

    def test_partial_flush_leaves_dirty_lines(self):
        domain, _ = mirror([("store", 0, b"a" * (CACHE_LINE * 3)),
                            ("flush", 0, 1), ("drain",)])
        assert domain.persisted_view()[:CACHE_LINE] == b"a" * CACHE_LINE
        assert domain.pending_lines() == {1: LineState.DIRTY,
                                          2: LineState.DIRTY}

    def test_store_after_flush_redirties(self):
        domain, _ = mirror([("store", 0, b"x"), ("flush", 0, 1),
                            ("store", 0, b"y"), ("drain",)])
        assert domain.line_state(0) is LineState.DIRTY
        assert domain.persisted_view()[0] == 0

    def test_size_zero_store_counts_but_marks_nothing(self):
        domain, _ = mirror([("store", 10, b""), ("drain",)])
        assert domain.store_count == 1
        assert domain.pending_lines() == {}

    def test_size_zero_flush_is_redundant(self):
        for ops in ([("flush", 0, 0)], [("store", 0, b"x"), ("flush", 0, 0)]):
            domain, model = mirror(ops)
            assert model.events[-1][0] is TraceEventKind.FLUSH_REDUNDANT
            assert domain.pending_lines() == model.lines

    def test_drain_site_defaults_to_empty(self):
        domain = PersistenceDomain(SIZE)
        events = observed(domain)
        domain.drain()
        domain.drain("call:site")
        assert [e.kind for e in events] == [TraceEventKind.FENCE] * 2
        assert [e.site for e in events] == ["", "call:site"]

    def test_persist_helper_matches(self):
        domain, _ = mirror([("store", 100, b"q" * 300),
                            ("persist", 100, 300)])
        assert domain.inconsistent_ranges() == []

    def test_random_sequences_agree(self):
        rng = random.Random(0xC0FFEE)
        for trial in range(20):
            ops = []
            for _ in range(rng.randrange(5, 60)):
                roll = rng.random()
                if roll < 0.5:
                    addr = rng.randrange(0, SIZE - 256)
                    ops.append(("store", addr,
                                bytes(rng.randrange(256)
                                      for _ in range(rng.randrange(0, 200))),
                                f"site{trial}"))
                elif roll < 0.8:
                    addr = rng.randrange(0, SIZE - 256)
                    ops.append(("flush", addr, rng.randrange(0, 256)))
                else:
                    ops.append(("drain", f"fence{trial}"))
            mirror(ops)


class TestLineStates:
    def test_line_state_enum_identity(self):
        domain = PersistenceDomain(SIZE)
        assert domain.line_state(0) is LineState.CLEAN
        domain.store(0, b"x")
        assert domain.line_state(0) is LineState.DIRTY
        domain.flush(0, 1)
        assert domain.line_state(0) is LineState.FLUSHED
        domain.drain()
        assert domain.line_state(0) is LineState.CLEAN

    def test_pending_lines_keys_are_python_ints(self):
        domain = PersistenceDomain(SIZE)
        domain.store(CACHE_LINE * 5, b"x")
        pending = domain.pending_lines()
        assert list(pending) == [5]
        assert all(type(k) is int for k in pending)

    def test_inconsistent_ranges_values_are_python_ints(self):
        domain = PersistenceDomain(SIZE)
        domain.store(10, b"abc")
        ranges = domain.inconsistent_ranges()
        assert ranges == [(10, 3)]
        assert all(type(v) is int for pair_ in ranges for v in pair_)

    def test_inconsistent_ranges_merge_adjacent_diffs(self):
        # Adjacent differing bytes merge into one range; an unchanged
        # byte between them splits it.
        domain, model = mirror([
            ("store", 0, b"ab"), ("store", 2, b"cd"), ("store", 5, b"ef"),
            ("store", 300, b"zz")])
        assert domain.inconsistent_ranges() == [(0, 4), (5, 2), (300, 2)]
        assert domain.inconsistent_ranges() == \
            domain._inconsistent_ranges_naive()


class TestBoundsChecking:
    def test_out_of_bounds_store_rejected(self):
        domain = PersistenceDomain(64)
        with pytest.raises(PMemError):
            domain.store(60, b"too long")

    def test_negative_address_rejected(self):
        domain = PersistenceDomain(SIZE)
        with pytest.raises(PMemError):
            domain.load(-1, 1)

    def test_zero_size_domain_rejected(self):
        with pytest.raises(PMemError):
            PersistenceDomain(0)

    def test_initial_contents_visible_and_persistent(self):
        init = bytes(range(64)) * 4
        domain, model = PersistenceDomain(256, init), RefModel(256, init)
        assert domain.load(0, 256) == init
        assert domain.persisted_view() == bytes(model.media) == init
        assert domain.inconsistent_ranges() == []


class TestCrashPlacement:
    def test_crash_at_fence_matches_scalar(self):
        domain, model = PersistenceDomain(SIZE), RefModel()
        domain.crash_at_fence = 1
        for target in (domain, model):
            target.store(0, b"x")
            target.flush(0, 1)
            target.drain()  # fence 0
            target.store(CACHE_LINE, b"y")
            target.flush(CACHE_LINE, 1)
        model.drain()
        with pytest.raises(SimulatedCrash) as exc_info:
            domain.drain()  # fence 1
        assert exc_info.value.fence_index == 1
        # The fence persisted its flushed lines *before* the crash.
        assert domain.persisted_view() == bytes(model.media)
        assert domain.persisted_view()[CACHE_LINE] == ord("y")

    def test_crash_at_store_matches_scalar(self):
        domain, model = PersistenceDomain(SIZE), RefModel()
        domain.crash_at_store = 2
        for target in (domain, model):
            target.store(0, b"a")
            target.store(1, b"b")
        model.store(2, b"c")
        with pytest.raises(SimulatedCrash) as exc_info:
            domain.store(2, b"c")
        assert exc_info.value.kind == "store"
        assert domain.store_count == 3  # the crashing store still counts
        assert domain.volatile_view() == bytes(model.volatile)


class TestSnapshots:
    def test_fence_snapshots_capture_cow_media(self):
        domain = PersistenceDomain(SIZE)
        domain.plan_snapshots(fences=[0, 1])
        domain.store(0, b"first")
        domain.flush(0, 5)
        domain.drain()
        domain.store(0, b"second")
        domain.flush(0, 6)
        domain.drain()
        snaps = domain.take_snapshots()
        assert [(s.kind, s.index, s.fences_done) for s in snaps] == \
            [("fence", 0, 1), ("fence", 1, 2)]
        # The fence-0 snapshot must show "first", not "second": the
        # copy-on-write must have saved pre-overwrite media bytes.
        assert bytes(snaps[0].materialize()[:5]) == b"first"
        assert snaps[1].materialize() == domain.persisted_view()

    def test_store_snapshots_match(self):
        domain, model = PersistenceDomain(SIZE), RefModel()
        domain.plan_snapshots(stores=[1])
        for target in (domain, model):
            target.store(0, b"x")
            target.persist(0, 1)
        media_at_store_1 = bytes(model.media)
        domain.store(1, b"y")  # snapshot armed here
        domain.persist(1, 1)
        snaps = domain.take_snapshots()
        assert len(snaps) == 1
        assert snaps[0].materialize() == media_at_store_1

    def test_snapshot_taken_before_crash_raise(self):
        domain = PersistenceDomain(SIZE)
        domain.plan_snapshots(fences=[0])
        domain.crash_at_fence = 0
        domain.store(0, b"z")
        domain.flush(0, 1)
        with pytest.raises(SimulatedCrash):
            domain.drain()
        snaps = domain.take_snapshots()
        assert len(snaps) == 1
        assert snaps[0].materialize() == domain.persisted_view()
        assert snaps[0].materialize()[0] == ord("z")


class TestDrainSignatureParity:
    def test_drain_signatures_agree_across_cores(self):
        """Every drain in the tree accepts the same optional site."""
        reference = inspect.signature(PersistenceDomain.drain)
        assert inspect.signature(PmemObjPool.drain) == reference
