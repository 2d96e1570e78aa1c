"""Warm-open pool cache: unit tests and warm-vs-cold equivalence.

The cache's contract is *observational invisibility*: an executor with
the cache on returns byte-identical :class:`ExecResult`s to one with it
off, for every input — including snapshot-plan runs and fault-site
bypasses.  Crash points never reach the cache: the executor takes none,
and the harness refuses a warm context together with one.  Cache
bookkeeping (hits, misses, bypasses, evictions) is host-side
observability only.
"""

import pytest

from repro.fuzz.executor import Executor
from repro.fuzz.harness import run_workload
from repro.fuzz.warmcache import WarmContext, WarmEntry, WarmOpenCache
from repro.instrument.context import ExecutionContext
from repro.pmem.crash import SnapshotPlan
from repro.workloads.mapcli import parse_commands
from repro.workloads.registry import get_workload
from repro.workloads.synthetic import BugInjector

DATA = b"i 1 2 i 3 4 g 1 s h u 909 r 1 q"


def factory():
    return get_workload("hashmap_tx")


@pytest.fixture()
def image():
    return factory().create_image()


def snap(result):
    """Every comparable field of an ExecResult, serialized."""
    return (
        result.outcome, result.cost,
        sorted(result.branch_sparse), sorted(result.pm_sparse),
        sorted(result.sites_hit),
        result.final_image.to_bytes() if result.final_image else None,
        result.fence_count, result.store_count, result.commands_run,
        result.error,
    )


# ----------------------------------------------------------------------
# Cache mechanics
# ----------------------------------------------------------------------
def _entry(tag: bytes) -> WarmEntry:
    class _Snap:
        def materialize(self):
            return tag

    return WarmEntry(layout="l", uuid=b"u" * 16, snapshot=_Snap(),
                     pending={}, seq=0, fence_count=0, store_count=0,
                     branch_pairs=(), branch_prev=0,
                     pm_pairs=(), pm_prev=0, sites=frozenset())


class TestWarmOpenCache:
    def test_miss_then_hit(self):
        cache = WarmOpenCache()
        assert cache.get("k") is None
        assert cache.misses == 1
        cache.put("k", _entry(b"m"))
        got = cache.get("k")
        assert got is not None and got.media == b"m"
        assert cache.hits == 1

    def test_freeze_deferred_until_next_interaction(self):
        cache = WarmOpenCache()
        entry = _entry(b"late")
        cache.put("k", entry)
        # The capturing execution may still be running: not frozen yet.
        assert entry.media is None and entry.snapshot is not None
        cache.get("other")
        assert entry.media == b"late" and entry.snapshot is None

    def test_lru_eviction_order(self):
        cache = WarmOpenCache(capacity=2)
        cache.put("a", _entry(b"a"))
        cache.put("b", _entry(b"b"))
        assert cache.get("a") is not None  # refresh "a"; "b" becomes LRU
        cache.put("c", _entry(b"c"))
        assert cache.evictions == 1
        assert len(cache) == 2
        assert cache.get("b") is None  # the LRU entry was evicted
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_key_for_hint_and_fallback(self, image):
        assert WarmOpenCache.key_for(image, "hint") == "hint"
        key = WarmOpenCache.key_for(image, None)
        assert key == WarmOpenCache.key_for(image, None)
        other = factory().create_image()
        other.payload[0] ^= 0xFF
        assert key != WarmOpenCache.key_for(other, None)

    def test_clear(self):
        cache = WarmOpenCache()
        cache.put("k", _entry(b"x"))
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k") is None


# ----------------------------------------------------------------------
# Warm-vs-cold equivalence at the executor boundary
# ----------------------------------------------------------------------
class TestWarmColdEquivalence:
    def test_clean_run_identical_and_hits(self, image):
        warm = Executor(factory)
        cold = Executor(factory, warm_open=False)
        first = warm.run(image, DATA)   # miss + store
        second = warm.run(image, DATA)  # hit
        reference = cold.run(image, DATA)
        assert snap(first) == snap(second) == snap(reference)
        assert warm.warm_cache.misses == 1
        assert warm.warm_cache.hits == 1
        assert cold.warm_cache is None

    def test_distinct_images_distinct_entries(self, image):
        warm = Executor(factory)
        cold = Executor(factory, warm_open=False)
        grown = cold.run(image, b"i 9 9").final_image
        warm.run(image, DATA)
        warm.run(grown, DATA)
        assert warm.warm_cache.misses == 2 and len(warm.warm_cache) == 2
        assert snap(warm.run(grown, DATA)) == snap(cold.run(grown, DATA))
        assert snap(warm.run(image, DATA)) == snap(cold.run(image, DATA))

    def test_pooled_volatile_processor_determinism(self, image):
        # One executor reuses a single VolatileCommandProcessor across
        # executions; a fresh executor per run must see identical output.
        reused = Executor(factory, warm_open=False)
        outputs = [snap(reused.run(image, DATA)) for _ in range(4)]
        fresh = [snap(Executor(factory, warm_open=False).run(image, DATA))
                 for _ in range(2)]
        for other in outputs[1:] + fresh:
            assert other == outputs[0]


# ----------------------------------------------------------------------
# Eligibility bypasses
# ----------------------------------------------------------------------
class TestEligibility:
    def test_injector_disables_cache(self, image):
        ex = Executor(factory, injector=BugInjector())
        ex.run(image, DATA)
        ex.run(image, DATA)
        assert ex.warm_cache.bypasses == 2
        assert ex.warm_cache.hits == 0 and len(ex.warm_cache) == 0

    def test_snapshot_plan_disables_cache(self, image):
        ex = Executor(factory)
        plan = SnapshotPlan(fences=(1, 2))
        result = ex.run(image, DATA, snapshot_plan=plan)
        assert result.snapshots  # planned images were harvested
        assert ex.warm_cache.bypasses == 1 and len(ex.warm_cache) == 0

    def test_empty_snapshot_plan_is_eligible(self, image):
        ex = Executor(factory)
        ex.run(image, DATA, snapshot_plan=SnapshotPlan())
        assert ex.warm_cache.bypasses == 0
        assert ex.warm_cache.misses == 1 and len(ex.warm_cache) == 1

    @pytest.mark.parametrize("crash_point", [{"crash_at_fence": 6},
                                             {"crash_at_store": 40}])
    def test_crash_point_refuses_warm_context(self, image, crash_point):
        # A crash point is armed on the cold open, where it can land
        # inside the prefix; a warm context could skip that prefix.
        ex = Executor(factory)
        ex.run(image, DATA)  # populate the entry the crash would hit
        warm = WarmContext(ex.warm_cache, image, None, ex._branch_cov,
                           ExecutionContext())
        with pytest.raises(ValueError, match="cold open"):
            run_workload(factory(), image, parse_commands(DATA),
                         warm=warm, **crash_point)
        assert ex.warm_cache.hits == 0  # refused before the lookup

    def test_snapshot_plan_after_hit_still_correct(self, image):
        # A cached entry must never leak into a later planned run.
        warm = Executor(factory)
        cold = Executor(factory, warm_open=False)
        warm.run(image, DATA)
        plan = SnapshotPlan(fences=(1, 3))
        w = warm.run(image, DATA, snapshot_plan=plan)
        c = cold.run(image, DATA, snapshot_plan=plan)
        assert snap(w) == snap(c)
        assert [(s.kind, s.index, bytes(s.image)) for s in w.snapshots] \
            == [(s.kind, s.index, bytes(s.image)) for s in c.snapshots]


# ----------------------------------------------------------------------
# Property: warm on/off equivalence over random inputs
# ----------------------------------------------------------------------
def test_warm_cold_property(image):
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    warm = Executor(factory)
    cold = Executor(factory, warm_open=False)

    @settings(max_examples=30, deadline=None)
    @given(data=st.binary(min_size=0, max_size=40))
    def prop(data):
        assert snap(warm.run(image, data)) == snap(cold.run(image, data))

    prop()
