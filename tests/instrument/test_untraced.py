"""The PM library runs outside the settrace recorder.

:func:`repro.instrument.branchcov.untraced` lifts the recorder's hook for
the duration of a PM-library call and reinstalls it when control returns
to the workload.  The contract under test:

* the suspension is invisible — every ``ExecResult`` field, and a whole
  campaign's ``comparable()`` stats, match the same run with suspension
  neutralised;
* no library code runs workload code while the recorder is suspended
  (a watchdog hook proves it), so no line event is lost;
* the boundary is complete — only a small, fixed number of call events
  per execution still reach the recorder from non-instrumented frames;
* the hook always comes back (exceptions cross the boundary), nested
  entry points work, foreign tracers are left alone, and PM call-site
  labels still name the workload caller, not the wrapper.

``untraced`` is the identity where ``sys.monitoring`` exists, so the
suspension tests skip there.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from collections import Counter

import pytest

from repro.core.config import PMFUZZ
from repro.core.pmfuzz import build_engine
from repro.errors import (SegmentationFault, SimulatedCrash,
                          TransactionAborted)
from repro.fuzz.executor import Executor
from repro.fuzz.rng import DeterministicRandom
from repro.instrument import branchcov
from repro.instrument.branchcov import UNTRACED_CODE, BranchCoverage, untraced
from repro.instrument.context import (ExecutionContext, pm_call_site,
                                      push_context)
from repro.instrument.covcore import HAVE_MONITORING, set_backend
from repro.pmdk import PStruct, PmemObjPool, U64
from repro.pmdk.inject import BugInjector
from repro.pmem.crash import SnapshotPlan
from repro.workloads.realbugs import buggy_flags_for
from repro.workloads.registry import get_workload, workload_names

suspends = pytest.mark.skipif(
    HAVE_MONITORING,
    reason="untraced is the identity where sys.monitoring exists")

WORKLOADS = workload_names()
SEEDS = (1, 2)


class Pair(PStruct):
    _fields_ = [("a", U64), ("b", U64)]


@pytest.fixture()
def pool():
    return PmemObjPool.create("untraced-test")


@pytest.fixture()
def settrace_backend():
    """Executors built in the test use the settrace recorder."""
    set_backend("settrace")
    yield
    set_backend(None)


def _here() -> str:
    """The ``pm_call_site`` label of the line calling this function."""
    return f"instrument/test_untraced.py:{sys._getframe(1).f_lineno}"


# ----------------------------------------------------------------------
# Test-only ways to change what the wrapper does
# ----------------------------------------------------------------------
def neutralise(monkeypatch) -> None:
    """Recorders start without publishing their hook, so every
    ``untraced`` wrapper runs its function under the recorder."""
    real_start = BranchCoverage.start

    def start(self):
        real_start(self)
        branchcov._recorder_hook = None

    monkeypatch.setattr(BranchCoverage, "start", start)


class _WatchdogSys:
    """Stands in for ``sys`` inside :mod:`branchcov`: where a wrapper
    would lift the hook, it installs :meth:`watch` instead, which notes
    every workload frame entered while the recorder is suspended."""

    def __init__(self) -> None:
        self.entered = []
        self.gettrace = sys.gettrace

    def watch(self, frame, event, arg):
        name = frame.f_code.co_filename.replace("\\", "/")
        if event == "call" and "repro/workloads" in name:
            self.entered.append(f"{name}:{frame.f_code.co_name}")

    def settrace(self, fn) -> None:
        if fn is None and sys._getframe(1).f_code is UNTRACED_CODE:
            fn = self.watch
        sys.settrace(fn)


def install_watchdog(monkeypatch) -> _WatchdogSys:
    shim = _WatchdogSys()
    monkeypatch.setattr(branchcov, "sys", shim)
    return shim


# ----------------------------------------------------------------------
# The decorator and the recorder hook
# ----------------------------------------------------------------------
class TestUntraced:
    @suspends
    def test_suspends_only_during_the_call(self):
        seen = []

        @untraced
        def entry(x, *, y):
            seen.append(sys.gettrace())
            return x + y

        with BranchCoverage():
            hook = sys.gettrace()
            assert hook is branchcov._recorder_hook is not None
            assert entry(1, y=2) == 3
            assert sys.gettrace() is hook
        assert seen == [None]

    @suspends
    def test_nested_entry_points(self):
        seen = []

        @untraced
        def inner():
            seen.append(("inner", sys.gettrace()))
            return 7

        @untraced
        def outer():
            seen.append(("outer", sys.gettrace()))
            return inner() + 1

        with BranchCoverage():
            hook = sys.gettrace()
            assert outer() == 8
            assert inner() == 7
            assert sys.gettrace() is hook
        assert seen == [("outer", None), ("inner", None), ("inner", None)]

    @suspends
    def test_hook_restored_after_segfault(self, pool):
        with BranchCoverage():
            hook = sys.gettrace()
            with pytest.raises(SegmentationFault):
                pool.typed(0, Pair)
            assert sys.gettrace() is hook

    @suspends
    def test_hook_restored_after_simulated_crash(self, pool):
        oid = pool.zalloc(Pair._size_)
        pool.domain.crash_at_fence = pool.domain.fence_count
        with BranchCoverage():
            hook = sys.gettrace()
            with pytest.raises(SimulatedCrash):
                pool.persist(oid, Pair._size_)
            assert sys.gettrace() is hook

    @suspends
    def test_hook_restored_after_transaction_abort(self, pool):
        with BranchCoverage():
            hook = sys.gettrace()
            with pytest.raises(TransactionAborted):
                with pool.transaction() as tx:
                    tx.znew(Pair)
                    raise ValueError("abort me")
            assert sys.gettrace() is hook
        assert pool.active_tx is None

    def test_inert_without_recorder(self):
        seen = []

        @untraced
        def entry():
            seen.append(sys.gettrace())
            return "r"

        before = sys.gettrace()
        assert branchcov._recorder_hook is None
        assert entry() == "r"
        assert seen == [before]

    @suspends
    def test_foreign_hook_passes_through(self):
        calls = []

        def foreign(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        @untraced
        def library_fn():
            return sys.gettrace()

        previous = sys.gettrace()
        # Alone, and installed over a running recorder (a debugger
        # attaching mid-execution): either way it stays in place.
        for recording in (False, True):
            cov = BranchCoverage()
            if recording:
                cov.start()
            sys.settrace(foreign)
            try:
                got = library_fn()
            finally:
                sys.settrace(previous)
                cov.stop()
            assert got is foreign
        assert calls.count("library_fn") == 2
        assert sys.gettrace() is previous

    def test_identity_where_monitoring_exists(self, monkeypatch):
        def fn():
            pass

        if not HAVE_MONITORING:
            assert untraced(fn) is not fn
            assert untraced(fn).__wrapped__ is fn
            monkeypatch.setattr(branchcov, "HAVE_MONITORING", True)
        assert untraced(fn) is fn


class TestRecorderHookRestore:
    def test_stop_reinstalls_the_previous_hook(self):
        def sentinel(frame, event, arg):
            return None

        previous = sys.gettrace()
        sys.settrace(sentinel)
        try:
            cov = BranchCoverage()
            cov.start()
            assert sys.gettrace() is not sentinel
            cov.stop()
            assert sys.gettrace() is sentinel
            assert branchcov._recorder_hook is None
        finally:
            sys.settrace(previous)

    def test_nested_recorders_restore_in_order(self):
        outer, inner = BranchCoverage(), BranchCoverage()
        previous = sys.gettrace()
        with outer:
            outer_hook = sys.gettrace()
            with inner:
                assert branchcov._recorder_hook is sys.gettrace()
                assert sys.gettrace() is not outer_hook
            assert sys.gettrace() is outer_hook
            assert branchcov._recorder_hook is outer_hook
        assert sys.gettrace() is previous
        assert branchcov._recorder_hook is None


# ----------------------------------------------------------------------
# PM call-site labels skip the wrapper frame
# ----------------------------------------------------------------------
@pytest.mark.parametrize("recording", [False, True], ids=["idle", "recording"])
class TestCallSiteLabels:
    def _sites(self, recording, body):
        ctx = ExecutionContext()
        cov = BranchCoverage()
        with push_context(ctx):
            if recording:
                cov.start()
            try:
                expected = body()
            finally:
                cov.stop()
        return expected, ctx.sites_hit

    def test_direct_and_nested_entry_points_label_the_caller(
            self, pool, recording):
        def body():
            labels = []
            site, oid = _here(), pool.zalloc(Pair._size_)
            labels.append(site)
            view = pool.typed(oid, Pair)
            site, _ = _here(), view.a            # PStruct.__getattr__
            labels.append(site)
            # TX_BEGIN reached through Transaction.__enter__ ...
            site, tx = _here(), pool.transaction().__enter__()
            labels.append(site)
            # ... TX_ADD called directly and through add_struct ...
            site, _ = _here(), tx.add(view.offset, 8)
            labels.append(site)
            site, _ = _here(), tx.add_struct(view)
            labels.append(site)
            # ... and TX_ZALLOC reached through TX_ZNEW.
            site, _ = _here(), tx.znew(Pair)
            labels.append(site)
            tx.__exit__(None, None, None)
            return labels

        expected, sites = self._sites(recording, body)
        assert set(expected) <= sites
        assert not any("branchcov.py" in s for s in sites)

    def test_pm_call_site_skips_wrapper_frames(self, recording):
        @untraced
        def entry():
            return pm_call_site(depth=2)

        def body():
            site, got = _here(), entry()
            assert got == site
            return [site]

        self._sites(recording, body)


# ----------------------------------------------------------------------
# Equivalence grid, watchdog and boundary census over real executions
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def queue_inputs(workload: str, bugs: frozenset, seed: int):
    """(image, data) of every queue entry of a short campaign."""
    engine = build_engine(workload, PMFUZZ,
                          rng=DeterministicRandom(seed).fork(workload),
                          bugs=bugs)
    engine.run(0.05)
    return tuple((engine.storage.load(e.image_id), e.data)
                 for e in engine.queue.entries)


def _digest(image):
    """Hash of a PMImage, or of a snapshot's raw payload bytes."""
    if image is None:
        return None
    raw = (image if isinstance(image, (bytes, bytearray))
           else image.to_bytes())
    return hashlib.sha256(raw).hexdigest()


def snap(result):
    """Every ExecResult field, images as hashes."""
    return (
        result.outcome, result.cost,
        sorted(result.branch_sparse), sorted(result.pm_sparse),
        sorted(result.sites_hit),
        _digest(result.final_image), _digest(result.crash_image),
        [_digest(i) for i in result.weak_crash_images],
        [(s.kind, s.index, s.fences_done, _digest(s.image))
         for s in result.snapshots],
        result.fence_count, result.store_count, result.commands_run,
        result.error,
    )


def run_variants(executor, image, data):
    """A clean run, a crash (with weak states) and a snapshot-plan run."""
    clean = executor.run(image, data)
    mid = clean.fence_count // 2
    crashed = executor.run(image, data, crash_at_fence=mid,
                           weak_states=True)
    plan = SnapshotPlan(fences=tuple(sorted({1, mid})), stores=(2,),
                        weak_states=True)
    planned = executor.run(image, data, snapshot_plan=plan)
    return [snap(clean), snap(crashed), snap(planned)]


BUILDS = ["fixed", "buggy"]


def _bugs(workload, build):
    return frozenset() if build == "fixed" else buggy_flags_for(workload)


@suspends
@pytest.mark.usefixtures("settrace_backend")
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_suspension_is_invisible(workload, build, warm, monkeypatch):
    bugs = _bugs(workload, build)
    inputs = [i for seed in SEEDS for i in queue_inputs(workload, bugs, seed)]
    factory = lambda: get_workload(workload, bugs=bugs)  # noqa: E731

    watchdog = install_watchdog(monkeypatch)
    suspended = Executor(factory, warm_open=warm)
    got = [run_variants(suspended, img, data) for img, data in inputs]
    monkeypatch.undo()
    assert watchdog.entered == []

    neutralise(monkeypatch)
    reference = Executor(factory, warm_open=warm)
    want = [run_variants(reference, img, data) for img, data in inputs]
    assert got == want
    assert any(s[0][2] for s in got)  # branch maps are not empty


@suspends
@pytest.mark.usefixtures("settrace_backend")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_bugs_run_inside_the_library(workload, monkeypatch):
    """The synthetic-bug injector is library code: consulted while the
    recorder is suspended, it must not live in an instrumented file."""
    bugs = get_workload(workload).synthetic_bugs()
    inputs = queue_inputs(workload, frozenset(), SEEDS[0])
    factory = lambda: get_workload(workload)  # noqa: E731

    def results(injector):
        executor = Executor(factory, injector=injector)
        return [run_variants(executor, img, data) for img, data in inputs]

    watchdog = install_watchdog(monkeypatch)
    injector = BugInjector(bugs)
    got = results(injector)
    monkeypatch.undo()
    assert watchdog.entered == []
    assert injector.triggered

    neutralise(monkeypatch)
    assert results(BugInjector(bugs)) == got


@suspends
@pytest.mark.usefixtures("settrace_backend")
def test_campaign_comparable_unchanged(monkeypatch):
    def campaign():
        engine = build_engine("btree", PMFUZZ,
                              rng=DeterministicRandom(5).fork("btree"))
        return engine.run(0.3).comparable()

    suspended = campaign()
    neutralise(monkeypatch)
    assert campaign() == suspended


#: Call events per execution that may still reach the recorder from
#: non-instrumented frames: the harness, ``push_context`` and a few
#: trivial properties.  Before the library boundary was drawn, a
#: hashmap_tx execution delivered about 2,100.
CENSUS_MEAN_BOUND = 24
CENSUS_MAX_BOUND = 48


@suspends
@pytest.mark.usefixtures("settrace_backend")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_boundary_census(workload):
    executor = Executor(lambda: get_workload(workload), warm_open=False)
    cov = executor._branch_cov
    real = cov._global_trace
    per_exec = Counter()
    where = Counter()
    n = [0]

    def counting(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code is not UNTRACED_CODE
                and not cov._instrumented(code.co_filename)):
            per_exec[n[0]] += 1
            where[f"{code.co_filename}:{code.co_name}"] += 1
        return real(frame, event, arg)

    cov._global_trace = counting
    for img, data in queue_inputs(workload, frozenset(), SEEDS[0]):
        executor.run(img, data)
        n[0] += 1
    mean = sum(per_exec.values()) / n[0]
    assert mean <= CENSUS_MEAN_BOUND, where.most_common(10)
    assert max(per_exec.values()) <= CENSUS_MAX_BOUND, where.most_common(10)
