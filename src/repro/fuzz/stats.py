"""Coverage-over-time statistics (the data behind Figure 13)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro._util import format_duration


@dataclass(frozen=True)
class CoverageSample:
    """One point on a coverage curve."""

    vtime: float  #: virtual seconds since campaign start
    executions: int
    pm_paths: int  #: distinct PM counter-map slots covered
    branch_edges: int  #: distinct branch-map slots covered
    queue_size: int
    images: int  #: distinct PM images generated (after dedup)
    harness_faults: int = 0  #: cumulative harness faults absorbed so far


@dataclass
class FuzzStats:
    """Full campaign statistics."""

    config_name: str = ""
    workload_name: str = ""
    samples: List[CoverageSample] = field(default_factory=list)
    executions: int = 0
    invalid_image_runs: int = 0
    segfault_runs: int = 0
    crash_images_generated: int = 0
    normal_images_generated: int = 0
    images_deduplicated: int = 0
    raw_image_bytes: int = 0
    compressed_image_bytes: int = 0
    sites_hit: set = field(default_factory=set)
    #: site label -> (image_id, input data, vtime) of the first test case
    #: to reach it; used by the synthetic-bug confirmation step.
    site_witness: dict = field(default_factory=dict)

    # Campaign-resilience counters (maintained by SupervisedExecutor).
    harness_faults: int = 0  #: harness failures absorbed (not program bugs)
    retries: int = 0  #: re-executions after transient harness faults
    timeouts: int = 0  #: per-test-case virtual-time budget overruns
    quarantined: int = 0  #: inputs quarantined for repeated harness kills
    #: why the campaign loop ended: "budget" (virtual time exhausted) or
    #: "exec-cap" (the MAX_EXECUTIONS safety valve) — "" while running.
    stop_reason: str = ""

    # Isolation-layer counters (maintained by the execution backend).
    isolation_backend: str = ""  #: resolved backend name ("fork"/"none")
    isolation_fallback: str = ""  #: why fork degraded to in-process
    watchdog_kills: int = 0  #: workers SIGKILLed at the wall deadline
    worker_crashes: int = 0  #: workers that died abnormally mid-execution
    worker_recycles: int = 0  #: planned retirements (max-execs policy)
    triage_bundles: int = 0  #: crash-triage bundles written to disk

    # Inert: these fields belonged to the retired fleet and corpus
    # database and always hold their defaults.  They stay because the
    # pinned comparable() digests cover every field, and retire with the
    # next re-pin (ROADMAP item 1).
    fleet_size: int = 0
    member_index: int = -1
    sync_published: int = 0
    sync_imported: int = 0
    sync_import_rejected: int = 0
    corpus_quarantined: int = 0
    #: distinct coverage-map slots covered, filled at campaign end.
    pm_covered_slots: set = field(default_factory=set)
    branch_covered_slots: set = field(default_factory=set)
    member_summaries: list = field(default_factory=list)
    members_retired: list = field(default_factory=list)
    corpusdb_published: int = 0
    corpusdb_imported: int = 0
    corpusdb_import_rejected: int = 0
    corpusdb_warm_start: int = 0
    corpusdb_quarantined: int = 0
    corpusdb_degraded: int = 0

    disk_full_faults: int = 0  #: injected/real ENOSPC hits absorbed

    # Observability snapshots (maintained by repro.observe).
    #: deterministic metrics registry snapshot (per-stage vtime,
    #: mutation-operator effectiveness, queue depth, map density, exec
    #: cost histogram) — part of every comparable() contract.
    metrics: dict = field(default_factory=dict)
    #: host-dependent metrics (wall-clock stage timers, --profile data);
    #: excluded from comparable() like every other wall-clock artifact.
    metrics_host: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def record(self, sample: CoverageSample) -> None:
        self.samples.append(sample)

    #: Fields excluded from :meth:`comparable`: how the campaign was
    #: *hosted* (isolation backend, worker management, wall-clock
    #: metrics), none of which the determinism contracts cover.
    #: Everything else — executions, samples, coverage, witnesses, fault
    #: and quarantine accounting — is promised to be bit-identical across
    #: fork/none backends and across kill/resume.
    _HOST_DEPENDENT_FIELDS = (
        "isolation_backend", "isolation_fallback", "watchdog_kills",
        "worker_crashes", "worker_recycles", "triage_bundles",
        "metrics_host",
        # ENOSPC hits at the checkpoint surface follow the (host-chosen)
        # checkpoint cadence.
        "disk_full_faults",
    )

    def comparable(self) -> dict:
        """Host-independent view of the campaign statistics: the
        fork/none and kill/resume equivalence contract."""
        from dataclasses import asdict

        full = asdict(self)
        for key in self._HOST_DEPENDENT_FIELDS:
            full.pop(key)
        return full

    @property
    def final_pm_paths(self) -> int:
        """PM paths covered at the end of the campaign."""
        return self.samples[-1].pm_paths if self.samples else 0

    @property
    def final_branch_edges(self) -> int:
        return self.samples[-1].branch_edges if self.samples else 0

    def pm_paths_at(self, vtime: float) -> int:
        """PM paths covered by the given virtual time (step function)."""
        best = 0
        for sample in self.samples:
            if sample.vtime <= vtime:
                best = sample.pm_paths
            else:
                break
        return best

    def series(self, checkpoints: Sequence[float]) -> List[Tuple[float, int]]:
        """The Figure 13 curve: (vtime, pm_paths) at each checkpoint."""
        return [(t, self.pm_paths_at(t)) for t in checkpoints]

    def render_curve(self, checkpoints: Sequence[float],
                     total_budget: Optional[float] = None) -> str:
        """Human-readable curve with the paper's H:MM axis labels.

        ``total_budget`` maps virtual time onto the paper's 4-hour axis:
        a checkpoint at fraction f of the budget is labeled f * 4 h.
        """
        parts = []
        for t, paths in self.series(checkpoints):
            if total_budget:
                label = format_duration(t / total_budget * 4 * 3600)
            else:
                label = f"{t:.1f}s"
            parts.append(f"{label}:{paths}")
        return " ".join(parts)
