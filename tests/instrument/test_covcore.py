"""Coverage-backend seam tests: selection, the loc-cache regression,
in-place reset, preload, and settrace/monitoring map equality."""

import pytest

from repro.instrument import covcore
from repro.instrument.branchcov import BranchCoverage
from repro.workloads.base import Command
from repro.workloads.volatile_ops import VolatileCommandProcessor

needs_monitoring = pytest.mark.skipif(
    not covcore.HAVE_MONITORING,
    reason="sys.monitoring needs python >= 3.12")


@pytest.fixture(autouse=True)
def restore_backend():
    yield
    covcore.set_backend(None)


class TestBackendSeam:
    def test_default_backend(self):
        expected = "monitoring" if covcore.HAVE_MONITORING else "settrace"
        assert covcore.DEFAULT_BACKEND == expected
        # Unpinned, the platform decides at build time.
        assert covcore.set_backend(None) == covcore.active_backend()
        if not covcore.HAVE_MONITORING:
            assert covcore.active_backend() == "settrace"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="settrace"):
            covcore.set_backend("dtrace")

    @pytest.mark.skipif(covcore.HAVE_MONITORING,
                        reason="needs an interpreter without sys.monitoring")
    def test_monitoring_unavailable_rejected(self):
        with pytest.raises(ValueError, match="PEP 669"):
            covcore.set_backend("monitoring")

    def test_set_and_active(self):
        assert covcore.set_backend("settrace") == "settrace"
        assert covcore.active_backend() == "settrace"
        cov = covcore.make_branch_coverage()
        assert type(cov) is BranchCoverage

    @needs_monitoring
    def test_make_monitoring_coverage(self):
        from repro.instrument.branchcov import MonitoringBranchCoverage

        covcore.set_backend("monitoring")
        cov = covcore.make_branch_coverage()
        assert type(cov) is MonitoringBranchCoverage


# ----------------------------------------------------------------------
# The loc-cache regression: keys must be (code object, line), never
# id(code) — CPython reuses ids after collection, which aliased two
# distinct lines to one location when code objects churn.
# ----------------------------------------------------------------------
_GEN_SRC = "def fn():\n    x = 1\n    y = x + 1\n    return y\n"


def _make_fn(filename: str):
    code = compile(_GEN_SRC, filename, "exec")
    ns: dict = {}
    exec(code, ns)
    return ns["fn"]


def _trace_once(cov, fn):
    with cov:
        fn()
    slots = frozenset(cov.touched)
    cov.reset()
    return slots


class TestLocCacheChurn:
    def test_churned_code_objects_never_alias(self):
        # Two "files" with identical line numbers must keep distinct
        # locations across heavy code-object churn (id reuse).
        cov = BranchCoverage()
        slots_a = _trace_once(cov, _make_fn("repro/workloads/gen_a.py"))
        slots_b = _trace_once(cov, _make_fn("repro/workloads/gen_b.py"))
        assert slots_a != slots_b
        for _ in range(64):
            fn_a = _make_fn("repro/workloads/gen_a.py")
            assert _trace_once(cov, fn_a) == slots_a
            del fn_a  # free the code object so its id can be reissued
            fn_b = _make_fn("repro/workloads/gen_b.py")
            assert _trace_once(cov, fn_b) == slots_b
            del fn_b

    def test_cache_entries_pin_code_objects(self):
        cov = BranchCoverage()
        _trace_once(cov, _make_fn("repro/workloads/gen_a.py"))
        assert cov._loc_cache
        for (code_id, lineno), (_, code) in cov._loc_cache.items():
            # A live code object in the value: its id cannot be reissued
            # while the entry is cached, so the id-based key stays valid.
            assert id(code) == code_id
            assert code.co_filename == "repro/workloads/gen_a.py"
            assert lineno > 0

    def test_same_source_different_files_distinct(self):
        # Code objects hash equal across filenames; the cache must not.
        cov = BranchCoverage()
        fn_a = _make_fn("repro/workloads/gen_a.py")
        fn_b = _make_fn("repro/workloads/gen_b.py")
        assert fn_a.__code__ == fn_b.__code__  # the hazard under test
        assert _trace_once(cov, fn_a) != _trace_once(cov, fn_b)


class TestInPlaceReset:
    def test_reset_reuses_the_map(self):
        proc = VolatileCommandProcessor()
        cov = BranchCoverage()
        buf = cov.counters
        with cov:
            proc.handle(Command("u", 12345))
        assert cov.edge_count() == len(cov.touched) > 0
        assert cov.nonzero_slots() == sorted(cov.touched)
        cov.reset()
        assert cov.counters is buf
        assert not any(buf)
        assert cov.edge_count() == 0
        assert cov.nonzero_slots() == []
        assert cov.prev_loc == 0

    def test_reset_then_rerun_identical(self):
        cov = BranchCoverage()
        def run():
            proc = VolatileCommandProcessor()
            proc.handle(Command("w", 171))
        with cov:
            run()
        first = sorted(cov.sparse())
        cov.reset()
        with cov:
            run()
        assert sorted(cov.sparse()) == first


class TestPreload:
    def test_preload_replays_delta(self):
        donor = BranchCoverage()
        with donor:
            VolatileCommandProcessor().handle(Command("e", 4242))
        pairs = tuple(donor.sparse())
        prev = donor.prev_loc
        fresh = BranchCoverage()
        fresh.preload(pairs, prev)
        assert sorted(fresh.sparse()) == sorted(pairs)
        assert fresh.prev_loc == prev

    def test_preload_then_trace_continues_edge_chain(self):
        # Donor runs prefix + suffix in one trace; the preloaded
        # recorder replays the prefix delta and traces only the suffix:
        # the final maps must be identical (the warm-open contract).
        def prefix(proc):
            proc.handle(Command("h"))
            proc.handle(Command("e", 77))

        def suffix(proc):
            proc.handle(Command("s"))
            proc.handle(Command("w", 255))

        donor_proc = VolatileCommandProcessor()
        donor = BranchCoverage()
        with donor:
            prefix(donor_proc)
        pairs, prev = tuple(donor.sparse()), donor.prev_loc
        with donor:
            suffix(donor_proc)
        full = sorted(donor.sparse())

        warm_proc = VolatileCommandProcessor()
        warm_proc.handle(Command("h"))     # untraced: mirrors the state
        warm_proc.handle(Command("e", 77))  # the prefix left behind
        warm = BranchCoverage()
        warm.preload(pairs, prev)
        with warm:
            suffix(warm_proc)
        assert sorted(warm.sparse()) == full


@needs_monitoring
class TestBackendEquality:
    """Both backends must produce byte-identical maps."""

    def _run(self, cov, commands):
        proc = VolatileCommandProcessor()
        with cov:
            for op, key in commands:
                proc.handle(Command(op, key))
        return sorted(cov.sparse()), cov.prev_loc

    def test_identical_maps_fixed_input(self):
        from repro.instrument.branchcov import MonitoringBranchCoverage

        commands = [("h", None), ("e", 42), ("u", 909), ("w", 171),
                    ("s", None), ("v", None), ("e", 1001)]
        assert (self._run(BranchCoverage(), commands)
                == self._run(MonitoringBranchCoverage(), commands))

    def test_identical_maps_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st
        from repro.instrument.branchcov import MonitoringBranchCoverage

        @settings(max_examples=25, deadline=None)
        @given(st.lists(
            st.tuples(st.sampled_from("hseuwv"),
                      st.integers(min_value=0, max_value=5000)),
            max_size=12))
        def prop(commands):
            assert (self._run(BranchCoverage(), commands)
                    == self._run(MonitoringBranchCoverage(), commands))

        prop()
