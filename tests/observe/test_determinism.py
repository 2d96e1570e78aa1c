"""The observability determinism contract (the tentpole's acceptance).

Tracing, metrics, status publication, and profiling must be pure
*observers*: a seeded campaign produces byte-identical host-independent
statistics and an identical queue whether tracing is on or off, under
either isolation backend, killed and resumed or not.
"""

import os

import pytest

from repro.core.config import PMFUZZ
from repro.core.pmfuzz import build_engine
from repro.fuzz.engine import FuzzEngine
from repro.fuzz.rng import DeterministicRandom
from repro.observe.report import render_report
from repro.observe.sink import merge_shards

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="requires os.fork")


def _run(tmp_path, name, isolation="none", trace=False, **kwargs):
    if trace:
        kwargs.update(trace_dir=str(tmp_path / name / "trace"),
                      status_every=0.1)
    if isolation == "fork":
        kwargs.setdefault("triage_dir", str(tmp_path / name / "triage"))
    engine = build_engine(
        "hashmap_tx", PMFUZZ,
        rng=DeterministicRandom(7).fork("hashmap_tx/obs"),
        isolation=isolation, **kwargs)
    stats = engine.run(0.4)
    return engine, stats


def _queue_set(engine):
    return sorted((e.data, e.image_id) for e in engine.queue.entries)


class TestSoloDeterminism:
    @pytest.mark.parametrize("isolation,trace", [
        ("none", True),
        ("none", False),  # self-check: the harness itself is stable
        pytest.param("fork", False, marks=needs_fork),
        pytest.param("fork", True, marks=needs_fork),
    ])
    def test_campaign_invariant_under_tracing_and_backend(
            self, tmp_path, isolation, trace):
        base_engine, base = _run(tmp_path, "base")
        engine, stats = _run(tmp_path, "variant", isolation=isolation,
                             trace=trace)
        assert stats.comparable() == base.comparable()
        assert _queue_set(engine) == _queue_set(base_engine)
        # The deterministic metrics snapshot is itself part of the
        # contract: identical key set and values either way.
        assert stats.metrics == base.metrics
        assert stats.metrics and "stage_vtime/execute" in stats.metrics

    def test_profile_flag_only_adds_host_metrics(self, tmp_path):
        _, base = _run(tmp_path, "base")
        _, profiled = _run(tmp_path, "prof", profile=True)
        assert profiled.comparable() == base.comparable()
        assert profiled.metrics == base.metrics
        assert base.metrics_host == {}
        assert any(k.startswith("stage_wall/") for k in profiled.metrics_host)

    def test_trace_sampling_does_not_perturb_campaign(self, tmp_path):
        _, base = _run(tmp_path, "base")
        engine, sampled = _run(tmp_path, "sampled", trace=True,
                               trace_sample=16)
        assert sampled.comparable() == base.comparable()
        events, _ = merge_shards(str(tmp_path / "sampled" / "trace"))
        execs = [e for e in events if e.kind == "exec"]
        assert 0 < len(execs) < sampled.executions  # sampling really on
        assert engine.trace.sampled_out > 0

    def test_traced_run_leaves_consistent_artifacts(self, tmp_path):
        engine, stats = _run(tmp_path, "traced", trace=True)
        trace_dir = str(tmp_path / "traced" / "trace")
        events, skipped = merge_shards(trace_dir)
        assert skipped == 0
        kinds = {e.kind for e in events}
        assert "exec" in kinds and "new_path" in kinds
        # Solo shard: every event labeled member -1, seq strictly
        # increasing (the merge found no duplicates to collapse).
        assert all(e.member == -1 for e in events)
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert "peak=" in render_report(trace_dir)


class TestKilledCampaignTrace:
    def test_killed_campaign_replay_dedups_and_report_renders(
            self, tmp_path, monkeypatch):
        """A campaign killed mid-run and resumed from its checkpoint
        re-emits its replayed tail with the same (member, seq) labels,
        so the merged trace equals an uninterrupted run's."""
        def engine_for(name):
            os.makedirs(tmp_path / name)
            return build_engine(
                "hashmap_tx", PMFUZZ,
                rng=DeterministicRandom(7).fork("hashmap_tx/obs"),
                trace_dir=str(tmp_path / name / "trace"),
                checkpoint_every=0.1,
                checkpoint_path=str(tmp_path / name / "c.ckpt"))

        reference = engine_for("ref").run(0.4)
        victim = engine_for("killed")
        real_run_one = victim._run_one

        def killing_run_one(entry, data):
            if victim.stats.executions >= 40:
                raise RuntimeError("simulated kill")
            real_run_one(entry, data)

        monkeypatch.setattr(victim, "_run_one", killing_run_one)
        with pytest.raises(RuntimeError):
            victim.run(0.4)
        engine = FuzzEngine.resume(str(tmp_path / "killed" / "c.ckpt"))
        assert engine.stats.executions < 40  # rolled back
        resumed = engine.run(0.4)
        assert resumed.comparable() == reference.comparable()

        trace_dir = str(tmp_path / "killed" / "trace")
        events, _ = merge_shards(trace_dir)
        ref_events, _ = merge_shards(str(tmp_path / "ref" / "trace"))
        assert [(e.kind, e.vtime, e.seq) for e in events] == \
            [(e.kind, e.vtime, e.seq) for e in ref_events]
        assert "peak=" in render_report(trace_dir)
