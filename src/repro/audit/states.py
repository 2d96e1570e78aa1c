"""Crash-state enumeration: every legal post-crash view of one trace.

The persistence model (DESIGN.md §13) is the standard POSIX one used by
ALICE-style checkers, specialized to the seam's primitives:

* A ``write``/``append``'s content is *pinned* (guaranteed on disk
  after a crash) once a later ``fsync`` of the same path appears in the
  surviving prefix.  Until then the crash may drop it entirely, or —
  for the final write of a prefix — persist a *torn* tail.
* A namespace op (``replace``/``link``/``unlink``) is pinned once a
  later ``fsync_dir`` of every parent directory whose entries it
  changed appears.  An unpinned namespace op may be reordered past
  anything and dropped whole; a replace is atomic (all-or-nothing).

For a trace of N ops the enumerator yields, deterministically and in a
stable order:

* every prefix cut ``p000`` … ``p{N}`` (one crash state per recorded
  op, plus the completed run as a sanity state);
* for each cut ending in a write/append, one torn-tail state per
  fraction in :data:`TORN_FRACTIONS` (the torn-write offsets discipline
  the checkpoint fuzz tests established);
* for each cut, a single-drop state per unpinned op and one
  drop-everything-unpinned state.

States are *materialized* by replaying the surviving ops into a fresh
copy of the pre-run snapshot with cascade-skip semantics: an op whose
input a dropped op was supposed to produce simply does not happen,
exactly as it could not have happened on the real disk.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.audit.trace import FsOp

#: Damage fractions for torn final writes — same discipline as
#: ``tests/resilience/test_checkpoint_torn.py``.
TORN_FRACTIONS = (0.0, 0.01, 0.05, 0.5, 0.999)


@dataclass(frozen=True)
class CrashState:
    """One legal post-crash filesystem state, as a recipe.

    ``cut`` ops survive; ``dropped`` indices among them do not; ``torn``
    (op index, fraction) truncates the final write's payload.
    """

    state_id: str
    cut: int
    dropped: Tuple[int, ...] = ()
    torn: Optional[Tuple[int, float]] = None

    def describe(self, ops: Sequence[FsOp]) -> str:
        bits = [f"crash after op {self.cut - 1}" if self.cut else
                "crash before any op"]
        for k in self.dropped:
            bits.append(f"drop un-fsynced {ops[k].describe().strip()}")
        if self.torn is not None:
            k, frac = self.torn
            bits.append(f"tear {ops[k].describe().strip()} at {frac:g}")
        return "; ".join(bits)


class CrashStateEnumerator:
    """Deterministic enumeration and materialization for one trace."""

    def __init__(self, ops: Sequence[FsOp]) -> None:
        self.ops = list(ops)

    # ------------------------------------------------------------------
    # The persistence model
    # ------------------------------------------------------------------
    def _pinned(self, k: int, cut: int) -> bool:
        """Is op ``k`` guaranteed durable in the prefix ``ops[:cut]``?"""
        op = self.ops[k]
        if op.kind in ("fsync", "fsync_dir"):
            return True  # nothing to lose
        later = self.ops[k + 1:cut]
        if op.kind in ("write", "append"):
            return any(o.kind == "fsync" and o.path == op.path
                       for o in later)
        # Namespace op: pinned by a later fsync of every parent whose
        # entries it changed.  A link touches only the destination
        # directory; a replace touches both parents when they differ.
        if op.kind == "link":
            dirs = {op.dest_parent}
        else:
            dirs = {op.parent}
            if op.dest is not None:
                dirs.add(op.dest_parent)
        return all(any(o.kind == "fsync_dir" and o.path == d for o in later)
                   for d in dirs)

    def _invisible(self, k: int, cut: int) -> bool:
        """Would dropping op ``k`` be unobservable at ``cut``?

        A write whose file is later replaced over or unlinked within the
        prefix leaves no trace either way; skipping such drops removes
        duplicate states without weakening coverage.
        """
        op = self.ops[k]
        if op.kind not in ("write", "append"):
            return False
        for o in self.ops[k + 1:cut]:
            if o.kind == "replace" and o.path == op.path:
                return False  # content travels with the rename: visible
            if o.kind == "unlink" and o.path == op.path:
                return True
            if o.kind == "write" and o.path == op.path:
                return True  # overwritten in place before the crash
            if o.kind == "replace" and o.dest == op.path:
                return True  # renamed over before the crash
        return False

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def enumerate(self) -> List[CrashState]:
        """Every crash state, in a stable, deterministic order."""
        states: List[CrashState] = []
        n = len(self.ops)
        for cut in range(n + 1):
            states.append(CrashState(state_id=f"p{cut:03d}", cut=cut))
            if cut > 0:
                last = self.ops[cut - 1]
                if last.kind in ("write", "append") and last.data:
                    for j, frac in enumerate(TORN_FRACTIONS):
                        states.append(CrashState(
                            state_id=f"p{cut:03d}-t{j}", cut=cut,
                            torn=(cut - 1, frac)))
            unpinned = [k for k in range(cut)
                        if not self._pinned(k, cut)
                        and not self._invisible(k, cut)]
            for k in unpinned:
                states.append(CrashState(
                    state_id=f"p{cut:03d}-d{k:03d}", cut=cut, dropped=(k,)))
            if len(unpinned) > 1:
                states.append(CrashState(
                    state_id=f"p{cut:03d}-dall", cut=cut,
                    dropped=tuple(unpinned)))
        return states

    @staticmethod
    def sample(states: List[CrashState],
               budget: int) -> List[CrashState]:
        """Deterministic evenly-spaced selection of ``budget`` states.

        ``budget <= 0`` means exhaustive.  The same (trace, budget)
        always selects the same states — the audit's reproducibility
        contract.
        """
        if budget <= 0 or budget >= len(states):
            return list(states)
        if budget == 1:
            return [states[-1]]
        span = len(states) - 1
        picked = sorted({round(i * span / (budget - 1))
                         for i in range(budget)})
        return [states[i] for i in picked]

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(self, state: CrashState, snapshot_dir: str,
                    target_dir: str) -> None:
        """Build ``state`` on disk from the pre-run ``snapshot_dir``."""
        if os.path.exists(target_dir):
            shutil.rmtree(target_dir)
        shutil.copytree(snapshot_dir, target_dir)
        for k in range(state.cut):
            if k in state.dropped:
                continue
            self._apply(self.ops[k], state, target_dir)

    def _apply(self, op: FsOp, state: CrashState, root: str) -> None:
        """Replay one op with cascade-skip tolerance.

        Any OSError — typically a missing source because an earlier op
        was dropped — means the op could not have happened on the real
        disk either; it is skipped, and everything depending on *its*
        output cascades the same way.
        """
        path = os.path.join(root, op.path)
        dest = os.path.join(root, op.dest) if op.dest is not None else None
        data = op.data
        if state.torn is not None and state.torn[0] == op.index:
            data = data[:int(len(data) * state.torn[1])]
        try:
            if op.kind in ("write", "append"):
                mode = "wb" if op.kind == "write" else "ab"
                with open(path, mode) as fh:
                    fh.write(data or b"")
            elif op.kind == "replace":
                os.replace(path, dest)
            elif op.kind == "link":
                os.link(path, dest)
            elif op.kind == "unlink":
                os.remove(path)
            # fsync / fsync_dir: ordering constraints, not content.
        except OSError:
            pass
