"""Synthetic bug injection (Section 5.1, "Synthetic Bug Injection").

The paper evaluates test-case quality by planting synthetic bugs in the
workloads and the PMDK library, of four kinds:

* remove/misplace writebacks (flushes) and fences,
* reorder PM writes that were ordered by writeback+fence,
* remove/misplace backup (TX_ADD) calls in transactional programs,
* semantically incorrect code in low-level programs (e.g. writing a
  wrong value to a commit variable).

Each :class:`SyntheticBug` names the *site* (the explicit site label the
workload passes to the PM library call) and the injection kind.  The
:class:`~repro.pmdk.inject.BugInjector` is carried on the execution
context; the pmdk layer consults it at every flush/fence/TX_ADD/store,
so an active bug changes the library's behaviour exactly at its site —
the software analogue of editing the source and recompiling.  The
injector and :class:`~repro.pmdk.inject.BugKind` live in the library
package (re-exported here): the injected code is part of PMDK, not of
the instrumented target program.

Detection accounting: a bug can be detected only if some generated test
case *triggers* its site; the injector records triggered bug IDs so the
evaluation pipeline can credit test cases (and the back-end detector
then confirms the resulting trace violation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Set

from repro.pmdk.inject import BugInjector, BugKind

__all__ = ["BugInjector", "BugKind", "SiteCoverage", "SyntheticBug"]


@dataclass(frozen=True)
class SyntheticBug:
    """One injectable bug: a kind applied at a named PM-operation site.

    Attributes:
        bug_id: unique identifier, e.g. ``"btree:s03"``.
        site: the site label of the PM operation the bug corrupts.
        kind: which corruption to apply there.
        depth: qualitative reachability (0 = init path, hit by any run;
            1 = common op path; 2 = deep path needing a populated image
            or crash image).  Used only for reporting.
    """

    bug_id: str
    site: str
    kind: BugKind
    depth: int = 1
    description: str = ""


@dataclass
class SiteCoverage:
    """Which synthetic-bug sites a corpus of test cases has reached."""

    sites_hit: Set[str] = field(default_factory=set)

    def update(self, sites: Iterable[str]) -> None:
        self.sites_hit.update(sites)

    def covered(self, bugs: Iterable[SyntheticBug]) -> Set[str]:
        """Return the IDs of bugs whose site some test case reached."""
        return {b.bug_id for b in bugs if b.site in self.sites_hit}
