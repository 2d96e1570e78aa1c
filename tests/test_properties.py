"""Property-based tests (hypothesis) on the core invariants.

The properties here are the ones the whole evaluation leans on:

* persistence-domain semantics (persisted ⊆ written; strict snapshots
  never invent data),
* the counter bucketing lookup table agrees with the threshold scan,
* range-tree correctness against a set-of-bytes model,
* image serialization is a lossless bijection on valid images,
* workloads are dictionary-equivalent under arbitrary command sequences,
* crash at an arbitrary fence + recovery always yields a consistent
  structure (the crash-consistency guarantee itself).
"""

import zlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.instrument.counter_map import bucket_of
from repro.pmem.image import PMImage
from repro.pmem.persistence import CACHE_LINE, PersistenceDomain
from repro.pmdk.rangetree import RangeTree
from repro.workloads import get_workload
from repro.workloads.base import Command, RunOutcome

# ----------------------------------------------------------------------
# Persistence domain
# ----------------------------------------------------------------------
ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.integers(0, 1000),
                  st.binary(min_size=1, max_size=24)),
        st.tuples(st.just("flush"), st.integers(0, 1000),
                  st.integers(1, 64)),
        st.tuples(st.just("drain"), st.just(0), st.just(0)),
    ),
    max_size=40,
)


@given(ops)
@settings(max_examples=60, deadline=None)
def test_persisted_view_only_contains_written_bytes(op_list):
    """Media bytes are always either initial zeros or previously stored."""
    d = PersistenceDomain(2048)
    written = {}
    for op, a, b in op_list:
        if op == "store":
            d.store(a, b)
            for i, byte in enumerate(b):
                written[a + i] = byte
        elif op == "flush":
            if a + b <= d.size:
                d.flush(a, b)
        else:
            d.drain()
    media = d.persisted_view()
    volatile = d.volatile_view()
    for addr, byte in enumerate(media):
        if byte != 0:
            # A nonzero media byte matches the volatile view at some past
            # point; with only forward writes it must match a write or
            # the current volatile byte of its line at a drain.
            assert addr in written or volatile[addr] == byte


@given(ops)
@settings(max_examples=60, deadline=None)
def test_flush_drain_everything_syncs_views(op_list):
    d = PersistenceDomain(2048)
    for op, a, b in op_list:
        if op == "store":
            d.store(a, b)
        elif op == "flush" and a + b <= d.size:
            d.flush(a, b)
        else:
            d.drain()
    d.flush(0, d.size)
    d.drain()
    assert d.persisted_view() == d.volatile_view()


# ----------------------------------------------------------------------
# Counter bucketing
# ----------------------------------------------------------------------
@given(st.integers(0, 255))
@settings(max_examples=60, deadline=None)
def test_bucket_lut_matches_threshold_scan(count):
    from repro.instrument.counter_map import _bucket_of_scan

    assert bucket_of(count) == _bucket_of_scan(count)


# ----------------------------------------------------------------------
# Range tree vs a set-of-bytes model
# ----------------------------------------------------------------------
ranges = st.lists(st.tuples(st.integers(0, 500), st.integers(1, 50)),
                  max_size=30)


@given(ranges, st.tuples(st.integers(0, 500), st.integers(1, 50)))
@settings(max_examples=100, deadline=None)
def test_rangetree_matches_byte_set_model(added, probe):
    tree = RangeTree()
    model = set()
    for off, size in added:
        tree.add(off, size)
        model.update(range(off, off + size))
    off, size = probe
    probe_bytes = set(range(off, off + size))
    assert tree.covers(off, size) == probe_bytes.issubset(model)
    assert tree.overlaps(off, size) == bool(probe_bytes & model)


@given(ranges)
@settings(max_examples=100, deadline=None)
def test_rangetree_intervals_disjoint_and_sorted(added):
    tree = RangeTree()
    total = set()
    for off, size in added:
        tree.add(off, size)
        total.update(range(off, off + size))
    intervals = list(tree)
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 < s2  # disjoint, gap preserved, sorted
    assert tree.covered_bytes() == len(total)


# ----------------------------------------------------------------------
# Image serialization
# ----------------------------------------------------------------------
@given(st.binary(min_size=1, max_size=2048),
       st.sampled_from(["a", "btree", "layout-x"]),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_image_serialization_round_trips(payload, layout, compress):
    img = PMImage(layout=layout, payload=bytearray(payload))
    restored = (PMImage.from_record(zlib.decompress(img.deflated()))
                if compress else PMImage.from_bytes(img.to_bytes()))
    assert restored.layout == img.layout
    assert bytes(restored.payload) == payload
    assert restored.content_hash() == img.content_hash()


# ----------------------------------------------------------------------
# Workloads: dictionary equivalence and crash consistency
# ----------------------------------------------------------------------
command_lists = st.lists(
    st.tuples(st.sampled_from("iiigrx"), st.integers(0, 20),
              st.integers(0, 999)),
    min_size=1, max_size=25,
)

WORKLOADS = ["btree", "rbtree", "rtree", "skiplist", "hashmap_tx",
             "hashmap_atomic", "redis"]


@given(st.sampled_from(WORKLOADS), command_lists)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_workload_equals_dict(name, raw_cmds):
    wl = get_workload(name)
    pool = wl.open(wl.create_image())
    shadow = {}
    for op, k, v in raw_cmds:
        out = wl.exec_command(pool, Command(op, k, v if op == "i" else None))
        if op == "i":
            shadow[k] = v
        elif op == "g":
            assert out == (str(shadow[k]) if k in shadow else "none")
        elif op == "x":
            assert out == ("1" if k in shadow else "0")
        elif op == "r":
            shadow.pop(k, None)
    assert wl.check_consistency(pool) == []


@given(st.sampled_from(WORKLOADS), command_lists, st.integers(0, 10_000))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_crash_anywhere_recovers_consistent(name, raw_cmds, fence_seed):
    """The headline guarantee: crash at ANY fence → recovery → consistent."""
    cmds = [Command(op, k, v if op == "i" else None)
            for op, k, v in raw_cmds]
    wl = get_workload(name)
    seed = wl.create_image()
    baseline = wl.run(seed, cmds)
    if baseline.fence_count == 0:
        return
    fence = fence_seed % baseline.fence_count
    crash = get_workload(name).run(seed, cmds, crash_at_fence=fence)
    assert crash.outcome is RunOutcome.CRASHED
    recovered = get_workload(name)
    result = recovered.run(crash.crash_image, [])
    assert result.outcome is RunOutcome.OK, (name, fence, result.error)
    pool = get_workload(name).open(result.final_image)
    assert get_workload(name).check_consistency(pool) == [], (name, fence)
