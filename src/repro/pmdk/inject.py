"""Synthetic-bug injection inside the PM library.

The paper plants its Table-3 synthetic bugs in the workloads *and* in
PMDK itself.  :class:`BugInjector` is the library half: the pmdk layer
consults it at every flush, fence, TX_ADD and store, and an active bug
at that site removes or corrupts the operation.  It lives in the library
package because it is library code — it runs inside PM-library calls,
outside the instrumented target program, so it never enters the branch
coverage map.  The bug catalogue itself
(:class:`~repro.workloads.synthetic.SyntheticBug`) stays with the
workloads that name the sites.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Set

if TYPE_CHECKING:
    from repro.workloads.synthetic import SyntheticBug


class BugKind(enum.Enum):
    """The synthetic bug classes of Section 5.1.

    ``WRONG_VALUE`` inverts the stored bytes (a garbage write);
    ``WRONG_COMMIT`` zeroes them — the paper's "setting a wrong value to
    the commit variables": a commit flag that should open a recovery
    window is written as *not set*, so the window silently never opens.
    """

    MISSING_FLUSH = "missing_flush"
    MISSING_FENCE = "missing_fence"
    MISSING_TXADD = "missing_txadd"
    WRONG_VALUE = "wrong_value"
    WRONG_COMMIT = "wrong_commit"


class BugInjector:
    """Applies a set of active synthetic bugs during execution.

    The pmdk layer calls :meth:`skip_flush` / :meth:`skip_fence` /
    :meth:`skip_tx_add` / :meth:`corrupt_store` on every corresponding
    operation; when the site matches an active bug the effect is applied
    and the bug is recorded as *triggered*.
    """

    def __init__(self, bugs: Iterable[SyntheticBug] = ()) -> None:
        self._by_site: Dict[str, SyntheticBug] = {}
        for bug in bugs:
            self.activate(bug)
        self.triggered: Set[str] = set()

    def activate(self, bug: SyntheticBug) -> None:
        """Make ``bug`` active (one bug per site)."""
        self._by_site[bug.site] = bug

    def deactivate(self, bug_id: str) -> None:
        """Remove an active bug by ID."""
        self._by_site = {
            s: b for s, b in self._by_site.items() if b.bug_id != bug_id
        }

    def active_bugs(self) -> FrozenSet[str]:
        """IDs of all active bugs."""
        return frozenset(b.bug_id for b in self._by_site.values())

    # ------------------------------------------------------------------
    # Hooks called from the pmdk layer
    # ------------------------------------------------------------------
    def _match(self, site: str, kind: BugKind) -> Optional[SyntheticBug]:
        bug = self._by_site.get(site)
        if bug is not None and bug.kind is kind:
            self.triggered.add(bug.bug_id)
            return bug
        return None

    def skip_flush(self, site: str) -> bool:
        """True if an active MISSING_FLUSH bug removes this writeback."""
        return self._match(site, BugKind.MISSING_FLUSH) is not None

    def skip_fence(self, site: str) -> bool:
        """True if an active MISSING_FENCE bug removes this ordering point.

        Removing the fence between two ordered writes is also how the
        paper's "reorder PM writes" bugs are realized: without the fence
        the second write may persist first.
        """
        return self._match(site, BugKind.MISSING_FENCE) is not None

    def skip_tx_add(self, site: str) -> bool:
        """True if an active MISSING_TXADD bug removes this backup."""
        return self._match(site, BugKind.MISSING_TXADD) is not None

    def corrupt_store(self, site: str, addr: int, data: bytes) -> bytes:
        """Apply a WRONG_VALUE (invert) or WRONG_COMMIT (zero) bug."""
        if self._match(site, BugKind.WRONG_VALUE) is not None:
            return bytes(b ^ 0xFF for b in data)
        if self._match(site, BugKind.WRONG_COMMIT) is not None:
            return b"\0" * len(data)
        return data
