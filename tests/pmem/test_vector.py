"""Persistence domain against a plain reference model of the cache-line rules.

The module keeps its name from the retired numpy ("vector") domain it
used to compare with :class:`PersistenceDomain`.  The same operation
sequences now run on the domain and on :class:`RefModel` — a
deliberately naive restatement of the rules (a store dirties every line
it spans, a flush moves dirty lines to flushed, a fence copies flushed
lines to the media) — and every observable must agree: views, pending
lines, counters and trace events.

The model keeps two full buffers, volatile and media, and takes every
snapshot as a full copy of the media; the domain keeps one buffer plus
the pre-images of its pending lines and builds snapshots when read.
:class:`TestOneBufferEquivalence` runs random sequences with planned
snapshots, armed crash points and a warm-state capture and restore on
both, and compares every view, every snapshot image and the pending
overlays.
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
        index = self.stores
        self.volatile[addr:addr + len(data)] = data
        for line in self._span(addr, len(data)):
            self.lines[line] = LineState.DIRTY
        self.stores += 1
        self.events.append((TraceEventKind.STORE, addr, len(data), site))
        if index in self.snap_stores:
            self.snapshots.append(("store", index, self.fences, (),
                                   bytes(self.media)))
        if index == self.crash_at_store:
            raise SimulatedCrash(index, kind="store")

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
        index = self.fences
        for line, state in list(self.lines.items()):
            if state is LineState.FLUSHED:
                start = line * CACHE_LINE
                self.media[start:start + CACHE_LINE] = \
                    self.volatile[start:start + CACHE_LINE]
                del self.lines[line]
        self.fences += 1
        self.events.append((TraceEventKind.FENCE, 0, 0, site or ""))
        if index in self.snap_fences:
            self.snapshots.append((
                "fence", index, index + 1,
                self.pending_overlays() if self.snap_pending else (),
                bytes(self.media)))
        if index == self.crash_at_fence:
            raise SimulatedCrash(index)

    def persist(self, addr, size, site=""):
        self.flush(addr, size, site)
        self.drain(site)

    # Snapshots, crash points and warm state: full copies throughout.
    snap_fences = snap_stores = frozenset()
    snap_pending = False
    crash_at_fence = crash_at_store = None

    def plan_snapshots(self, fences=(), stores=(), pending=False):
        self.snap_fences = frozenset(fences)
        self.snap_stores = frozenset(stores)
        self.snap_pending = pending
        self.snapshots = []

    def pending_overlays(self):
        return tuple((line, bytes(self.volatile[line * CACHE_LINE:
                                                (line + 1) * CACHE_LINE]))
                     for line in sorted(self.lines))

    def clone(self):
        twin = RefModel(len(self.media), self.media)
        twin.volatile = bytearray(self.volatile)
        twin.lines = dict(self.lines)
        twin.stores, twin.fences = self.stores, self.fences
        twin.events = list(self.events)
        return twin


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
        assert domain.persisted_view() == domain.volatile_view()

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
        assert domain.pending_lines() == {}


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


def random_ops(rng, size, count):
    ops = []
    for _ in range(count):
        roll = rng.random()
        addr = rng.randrange(0, size - 1)
        if roll < 0.5:
            length = rng.randrange(0, min(160, size - addr))
            # Small alphabet: stores often write a line's media bytes
            # back, so pending lines also hold bytes equal to the media.
            ops.append(("store", addr,
                        bytes(rng.choice(b"\0\1Z") for _ in range(length))))
        elif roll < 0.8:
            ops.append(("flush", addr,
                        rng.randrange(0, min(200, size - addr))))
        else:
            ops.append(("drain",))
    return ops


def apply_op(target, op):
    """One op on the domain or the model; True when it crashed."""
    try:
        if op[0] == "store":
            target.store(op[1], op[2])
        elif op[0] == "flush":
            target.flush(op[1], op[2])
        else:
            target.drain()
    except SimulatedCrash:
        return True
    return False


def assert_same_media(domain, model):
    assert domain.volatile_view() == bytes(model.volatile)
    assert domain.persisted_view() == bytes(model.media)
    assert domain.persisted_copy() == model.media
    assert domain.pending_lines() == model.lines
    assert domain.pending_overlays() == model.pending_overlays()
    assert domain.store_count == model.stores
    assert domain.fence_count == model.fences
    assert domain.seq == len(model.events)


class TestOneBufferEquivalence:
    """The one-buffer domain against the two-buffer model."""

    @pytest.mark.parametrize("trial", range(24))
    def test_random_sequences_with_snapshots_crashes_and_warm_state(
            self, trial):
        rng = random.Random(0x5EED + trial)
        size = rng.choice([SIZE, SIZE - 37, 3 * CACHE_LINE + 5])
        domain = PersistenceDomain(size)
        model = RefModel(size)
        observed(domain)  # events exercise the traced path too
        fences = sorted(rng.sample(range(16), 5))
        stores = sorted(rng.sample(range(40), 5))
        pending = trial % 2 == 0
        domain.plan_snapshots(fences=fences, stores=stores, pending=pending)
        model.plan_snapshots(fences, stores, pending)
        if trial % 3 == 1:
            domain.crash_at_fence = model.crash_at_fence = rng.randrange(12)
        elif trial % 3 == 2:
            domain.crash_at_store = model.crash_at_store = rng.randrange(40)
        ops = random_ops(rng, size, 90)
        warm_at = rng.randrange(len(ops))
        warm = None
        for index, op in enumerate(ops):
            if index == warm_at:
                warm = domain.capture_warm_state(), model.clone()
            crashed = apply_op(domain, op)
            assert apply_op(model, op) is crashed
            assert_same_media(domain, model)
            if crashed:
                break
        snapshots = domain.take_snapshots()
        assert [(s.kind, s.index, s.fences_done, s.pending, s.image)
                for s in snapshots] == model.snapshots
        assert all(snap.kind != "warm" for snap in snapshots)
        if warm is None:
            return
        (snapshot, lines, seq, fence_count, store_count), at_capture = warm
        assert snapshot.image == at_capture.media
        restored = PersistenceDomain(size, snapshot.materialize())
        restored.warm_restore(lines, seq, fence_count, store_count)
        assert_same_media(restored, at_capture)
        for op in random_ops(rng, size, 40):
            apply_op(restored, op)
            apply_op(at_capture, op)
            assert_same_media(restored, at_capture)

    def test_snapshot_survives_later_fences_and_shared_buffer_writes(self):
        domain, model = PersistenceDomain(SIZE), RefModel()
        domain.plan_snapshots(fences=[0], stores=[1])
        model.plan_snapshots([0], [1])
        for target in (domain, model):
            apply_op(target, ("store", 0, b"a" * 100))
            apply_op(target, ("flush", 0, 100))
            apply_op(target, ("drain",))
            apply_op(target, ("store", 10, b"b" * 80))
        shared = domain.share_volatile()
        handed_over = bytes(shared)
        for target in (domain, model):
            apply_op(target, ("flush", 0, 128))
            apply_op(target, ("drain",))
            apply_op(target, ("store", 5, b"c" * 200))
        assert bytes(shared) == handed_over
        assert_same_media(domain, model)
        assert [(s.kind, s.index, s.fences_done, s.pending, s.image)
                for s in domain.take_snapshots()] == model.snapshots
