"""PM-path prioritization: Algorithm 2 of the paper.

Examines the PM counter-map of one execution against the campaign's
global PM coverage and assigns the test case a ``Favored`` value:

* 2 (high) — some populated slot is *unseen* globally;
* 1 (medium) — a known slot was hit with a significantly different
  counter value (a different AFL bucket);
* 0 (low) — identical or minor differences only.

Test cases keep the maximum over their slots, exactly as the
``Max(Favored, TestCase.Favored)`` step in the pseudocode.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Tuple

if TYPE_CHECKING:  # repro.fuzz.engine imports this module
    from repro.fuzz.coverage import GlobalCoverage


def pm_path_priority(pm_cov: GlobalCoverage,
                     pm_sparse: Iterable[Tuple[int, int]]) -> int:
    """Return the Algorithm-2 Favored value for one execution.

    Args:
        pm_cov: the campaign's global PM counter-map coverage (not
            modified — update it separately after prioritization).
        pm_sparse: the execution's (slot, count) pairs.
    """
    new_slot, new_bucket, _ = pm_cov.classify(pm_sparse)
    if new_slot:
        return 2
    if new_bucket:
        return 1
    return 0
