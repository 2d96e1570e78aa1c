"""Tests for crash states: the strict media and the eviction sample."""

from repro.pmem.crash import eviction_states
from repro.pmem.persistence import CACHE_LINE, PersistenceDomain


def crash_states(domain, evictions=True):
    """The strict state, then (with ``evictions``) the eviction sample."""
    media = domain.persisted_view()
    states = [bytes(media)]
    if evictions:
        states.extend(eviction_states(media, domain.pending_overlays()))
    return states


def test_strict_policy_yields_media_only():
    d = PersistenceDomain(256)
    d.store(0, b"x")
    states = crash_states(d, evictions=False)
    assert len(states) == 1
    assert states[0][0] == 0  # the dirty byte did not persist


def test_strict_state_reflects_persisted_data():
    d = PersistenceDomain(256)
    d.store(0, b"x")
    d.persist(0, 1)
    d.store(64, b"y")  # pending
    (state,) = crash_states(d, evictions=False)
    assert state[0] == ord("x")
    assert state[64] == 0


def test_all_pending_includes_full_eviction_state():
    d = PersistenceDomain(256)
    d.store(0, b"a")
    d.store(CACHE_LINE, b"b")
    states = crash_states(d)
    # strict + all-pending + one per pending line
    assert len(states) == 4
    full = states[1]
    assert full[0] == ord("a") and full[CACHE_LINE] == ord("b")


def test_all_pending_single_line_states():
    d = PersistenceDomain(256)
    d.store(0, b"a")
    d.store(CACHE_LINE, b"b")
    singles = crash_states(d)[2:]
    # One state has only line 0 evicted, the other only line 1.
    evictions = {(s[0] != 0, s[CACHE_LINE] != 0) for s in singles}
    assert evictions == {(True, False), (False, True)}


def test_no_pending_lines_yields_strict_only():
    d = PersistenceDomain(256)
    d.store(0, b"a")
    d.persist(0, 1)
    assert len(crash_states(d)) == 1


def test_snapshot_with_lines_merges_volatile():
    # One pending line: the eviction sample is the state where it
    # persisted, built in a new buffer.
    d = PersistenceDomain(256)
    d.store(0, b"a")
    (snap,) = eviction_states(d.persisted_view(), d.pending_overlays())
    assert snap[0] == ord("a")
    assert d.persisted_view()[0] == 0  # domain itself unchanged
