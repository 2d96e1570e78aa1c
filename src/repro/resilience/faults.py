"""Deterministic environment-fault injection for the campaign harness.

The workload-level :class:`~repro.workloads.synthetic.BugInjector` plants
bugs *inside the program under test*; this module is its counterpart for
the *harness environment*: the storage tier dropping reads and writes,
image bytes coming back truncated or corrupted, decompression failing
transiently, the executor's fork-server analogue dying, or a target
hanging past its time budget.  A real 4-hour AFL++ campaign shrugs all
of these off; :class:`EnvFaultInjector` lets this reproduction prove the
same about its own campaign loop (and lets the resilience tests exercise
every failure point systematically, in the spirit of WITCHER's
exhaustive failure-point exploration).

Faults are driven by a :class:`FaultPlan` — a list of ``(site, rate,
burst)`` specs plus a seed — and drawn from an RNG that is *separate*
from the campaign RNG, so an injected fault never perturbs mutation or
queue-selection decisions: a campaign that recovers from every fault
covers the same paths as a fault-free campaign with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (ExecTimeoutError, FuzzerError, HarnessFaultError,
                          StorageFaultError)

#: Every named fault site in the harness.
FAULT_SITES: Tuple[str, ...] = (
    "storage-save",    # ImageStore.put: write I/O error (EIO on the SSD tier)
    "storage-load",    # ImageStore.get: read I/O error
    "storage-corrupt",  # ImageStore.get: truncated/corrupted stored bytes
    "decompress",      # ImageStore.get: transient LZ77 decompression failure
    "exec-fault",      # Executor.run: the harness process died (fork server)
    "exec-hang",       # Executor.run: virtual-time hang (target never exits)
    "disk-full",       # ImageStore.put / checkpoint / corpusdb publish: ENOSPC
    "corpusdb-publish",  # CorpusDatabase.publish: entry write I/O error
    "corpusdb-read",     # CorpusDatabase.get / scan: read I/O error
    "corpusdb-journal",  # IntentJournal.begin: intent write I/O error
    "corpusdb-compact",  # CorpusDatabase.compact: tier-move I/O error
)

#: One-line description per fault site (``python -m repro faults list``).
FAULT_SITE_DESCRIPTIONS: Dict[str, str] = {
    "storage-save": "ImageStore.put: write I/O error (EIO on the SSD tier)",
    "storage-load": "ImageStore.get: read I/O error",
    "storage-corrupt": "ImageStore.get: truncated/corrupted stored bytes",
    "decompress": "ImageStore.get: transient LZ77 decompression failure",
    "exec-fault": "Executor.run: the harness process died (fork server)",
    "exec-hang": "Executor.run: virtual-time hang (target never exits)",
    "disk-full": "ImageStore.put / checkpoint / corpusdb publish: ENOSPC",
    "corpusdb-publish": "CorpusDatabase.publish: entry write I/O error",
    "corpusdb-read": "CorpusDatabase.get / scan: read I/O error",
    "corpusdb-journal": "IntentJournal.begin: intent write I/O error",
    "corpusdb-compact": "CorpusDatabase.compact: tier-move I/O error",
}

#: Sites drawn from the *host* fault stream (see :meth:`check_host`).
HOST_FAULT_SITES: Tuple[str, ...] = (
    "disk-full",
    "corpusdb-publish",
    "corpusdb-read",
    "corpusdb-journal",
    "corpusdb-compact",
)

#: Spec-string aliases expanding to groups of sites.
SITE_GROUPS: Dict[str, Tuple[str, ...]] = {
    "all": FAULT_SITES,
    "storage": ("storage-save", "storage-load", "storage-corrupt",
                "disk-full"),
    "exec": ("exec-fault", "exec-hang"),
    "corpusdb": ("corpusdb-publish", "corpusdb-read", "corpusdb-journal",
                 "corpusdb-compact"),
}


@dataclass(frozen=True)
class FaultSpec:
    """Injection policy for one site."""

    site: str
    rate: float  #: per-check Bernoulli probability of triggering
    burst: int = 1  #: consecutive faults once triggered (SSD brown-out)

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise FuzzerError(f"unknown fault site {self.site!r}; "
                              f"known: {list(FAULT_SITES)}")
        if not 0.0 <= self.rate <= 1.0:
            raise FuzzerError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.burst < 1:
            raise FuzzerError(f"burst must be >= 1, got {self.burst}")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault-injection plan for one campaign."""

    specs: Tuple[FaultSpec, ...]
    seed: int = 0xFA017

    @classmethod
    def parse(cls, text: str, seed: int = 0xFA017) -> "FaultPlan":
        """Parse a ``site:rate[:burst]`` comma list.

        ``site`` is one of :data:`FAULT_SITES` or a group alias
        (``all``, ``storage``, ``exec``), e.g. ``"all:0.01"`` or
        ``"storage-load:0.05:3,exec-fault:0.01"``.
        """
        specs: List[FaultSpec] = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            fields = part.split(":")
            if len(fields) not in (2, 3):
                raise FuzzerError(
                    f"bad fault spec {part!r}: expected site:rate[:burst]")
            try:
                site, rate = fields[0], float(fields[1])
                burst = int(fields[2]) if len(fields) == 3 else 1
            except ValueError:
                raise FuzzerError(
                    f"bad fault spec {part!r}: rate must be a number "
                    f"and burst an integer") from None
            for expanded in SITE_GROUPS.get(site, (site,)):
                specs.append(FaultSpec(expanded, rate, burst))
        if not specs:
            raise FuzzerError(f"empty fault plan {text!r}")
        return cls(tuple(specs), seed=seed)


def as_fault_plan(plan: Union[None, str, FaultPlan],
                  seed: int = 0xFA017) -> Optional[FaultPlan]:
    """Coerce a CLI spec string / FaultPlan / None to a FaultPlan."""
    if plan is None or isinstance(plan, FaultPlan):
        return plan
    return FaultPlan.parse(plan, seed=seed)


class EnvFaultInjector:
    """Seeded, deterministic fault source consulted at every named site.

    The injector is pure policy: the instrumented components
    (:class:`~repro.core.dedup.ImageStore`,
    :class:`~repro.fuzz.executor.Executor`) call :meth:`check` /
    :meth:`filter_bytes` at their fault sites; everything else — retry,
    backoff, quarantine — lives in the supervisor.
    """

    #: XOR'd into the plan seed to derive the independent host stream.
    _HOST_STREAM_SALT = 0x5D15C

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        #: Second, independent RNG for *host-side* sites (checkpoint
        #: writes, corpus-database I/O).  Those sites are consulted on a
        #: cadence that depends on host configuration (checkpoint
        #: interval, ``--corpus-db`` on/off), so drawing them from the
        #: campaign fault stream would shift every later campaign-class
        #: draw and break the bit-identity contracts.  A separate stream
        #: keeps the campaign draws untouched no matter how often the
        #: host sites fire.
        self._host_rng = random.Random(plan.seed ^ self._HOST_STREAM_SALT)
        self._specs: Dict[str, FaultSpec] = {s.site: s for s in plan.specs}
        #: remaining forced faults per site (burst mode), per stream.
        self._burst_left: Dict[str, int] = {}
        self._host_burst_left: Dict[str, int] = {}
        #: faults actually fired, per site (observability + tests).
        self.fired: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _draw(self, site: str, rng: random.Random,
              burst_left: Dict[str, int]) -> bool:
        spec = self._specs.get(site)
        if spec is None:
            return False
        if burst_left.get(site, 0) > 0:
            burst_left[site] -= 1
        elif rng.random() < spec.rate:
            burst_left[site] = spec.burst - 1
        else:
            return False
        self.fired[site] = self.fired.get(site, 0) + 1
        return True

    def should_fault(self, site: str) -> bool:
        """One deterministic draw for ``site`` (burst-aware)."""
        return self._draw(site, self._rng, self._burst_left)

    def should_fault_host(self, site: str) -> bool:
        """Like :meth:`should_fault` but drawn from the host stream."""
        return self._draw(site, self._host_rng, self._host_burst_left)

    def _raise_for(self, site: str) -> None:
        if site == "exec-hang":
            raise ExecTimeoutError(site=site)
        if site == "exec-fault":
            raise HarnessFaultError(
                "injected harness death (fork server lost the target)",
                site=site, transient=True)
        if site == "disk-full":
            raise StorageFaultError(
                "injected ENOSPC: no space left on device",
                site=site, transient=True)
        raise StorageFaultError(f"injected storage fault at {site}",
                                site=site, transient=True)

    def check(self, site: str) -> None:
        """Raise the site's error class if a fault fires here."""
        if self.should_fault(site):
            self._raise_for(site)

    def check_host(self, site: str) -> None:
        """:meth:`check`, but drawn from the host fault stream.

        Used by the checkpoint writer and the corpus database, whose
        consultation cadence is a host configuration choice rather than
        part of the deterministic campaign trajectory.
        """
        if self.should_fault_host(site):
            self._raise_for(site)

    def filter_bytes(self, site: str, data: bytes) -> bytes:
        """Return ``data``, possibly truncated or bit-flipped.

        Models a torn read from the SSD tier: the *stored* bytes are
        intact, only this read observes garbage — so a retry succeeds.
        """
        if not self.should_fault(site) or not data:
            return data
        if self._rng.random() < 0.5:
            return data[: self._rng.randrange(len(data))]
        corrupted = bytearray(data)
        for _ in range(1 + self._rng.randrange(8)):
            corrupted[self._rng.randrange(len(corrupted))] ^= \
                1 << self._rng.randrange(8)
        return bytes(corrupted)

    # ------------------------------------------------------------------
    def total_fired(self) -> int:
        """Total faults injected across all sites."""
        return sum(self.fired.values())

    def getstate(self):
        """Checkpointable snapshot (both RNG streams + burst + fired)."""
        return (self._rng.getstate(), dict(self._burst_left),
                dict(self.fired), self._host_rng.getstate(),
                dict(self._host_burst_left))

    def setstate(self, state) -> None:
        rng_state, burst, fired = state[:3]
        self._rng.setstate(rng_state)
        self._burst_left = dict(burst)
        self.fired = dict(fired)
        if len(state) > 3:  # pre-host-stream checkpoints carry 3 fields
            self._host_rng.setstate(state[3])
            self._host_burst_left = dict(state[4])
