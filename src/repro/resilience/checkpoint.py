"""Crash-safe campaign checkpoint / resume.

A 4-hour campaign whose state — queue, coverage maps, virtual clock,
RNG, test-case tree, image store — lives only in memory is one fault
away from losing everything.  This module snapshots *complete* campaign
state atomically and restores it bit-for-bit:

* **Atomicity** — the snapshot is written to a temp file in the target
  directory, fsynced, then renamed over the destination (the classic
  write-tmp + fsync + rename protocol, the same discipline the PM
  programs under test are being fuzzed *for*).  A kill at any point
  leaves either the old checkpoint or the new one, never a torn file.
* **Integrity** — the payload carries a SHA-256 checksum verified on
  read; a corrupt or truncated checkpoint raises
  :class:`~repro.errors.CheckpointError` instead of resurrecting a
  half-campaign.
* **Determinism** — checkpoints are taken at fuzzing-round boundaries
  and include the RNG and fault-injector streams, so a campaign killed
  at *any* instant resumes from its last checkpoint and replays the
  interrupted tail exactly: final stats, coverage bitmaps and queue
  order are byte-identical to an uninterrupted run with the same seed
  (the test-suite invariant).

A checkpoint is self-describing: it embeds the ``campaign_meta``
recorded by :func:`repro.core.pmfuzz.build_engine` (workload name,
configuration, bug flags, seed inputs, fault plan, and the
:class:`~repro.core.config.RunConfig` fields that differ from their
defaults), so :func:`resume_campaign` can rebuild the right engine class
from the registry without any caller-side bookkeeping.
"""

from __future__ import annotations

import os
import pickle
import shutil
from collections import OrderedDict
from typing import Optional

from repro._util import (atomic_write_bytes, pack_checksummed,
                         replace_durable, unpack_checksummed)
from repro._vfs import current_vfs
from repro.errors import CheckpointError, CheckpointVersionError

_MAGIC = b"PMFZCKPT1\n"
#: Version 2 checkpoints record only current RunConfig fields in their
#: ``engine_kwargs`` and only current state keys; older checkpoints are
#: refused by the version check in :func:`read_checkpoint`.
FORMAT_VERSION = 2


# ----------------------------------------------------------------------
# File format: MAGIC + sha256-hex + "\n" + pickle payload
# ----------------------------------------------------------------------
def write_checkpoint(path: str, payload: dict) -> None:
    """Atomically persist ``payload`` (write-tmp + fsync + rename)."""
    try:
        blob = pickle.dumps(payload, protocol=4)
    except Exception as exc:
        raise CheckpointError(f"campaign state is not serializable: {exc}") \
            from exc
    atomic_write_bytes(path, pack_checksummed(_MAGIC, blob))


def rotate_previous(path: str) -> None:
    """Preserve the outgoing checkpoint as ``<path>.prev``.

    Hardlink-based where the filesystem allows it: the current file is
    linked to the ``.prev`` name *before* the new checkpoint renames
    over ``path``, so at no instant is there zero intact checkpoints on
    disk.  :func:`resume_campaign` falls back to ``.prev`` when the
    primary is damaged (e.g. bit rot after the atomic write).
    """
    if not os.path.exists(path):
        return
    vfs = current_vfs()
    prev = path + ".prev"
    tmp = prev + ".tmp"
    try:
        if os.path.exists(tmp):
            vfs.unlink(tmp)
        vfs.link(path, tmp)
        replace_durable(tmp, prev)
    except OSError:
        # Filesystems without hardlink support get a byte copy; `path`
        # itself is still only ever replaced atomically.
        try:
            shutil.copyfile(path, tmp)
            replace_durable(tmp, prev)
        except OSError:
            pass  # rotation is best-effort; the primary write proceeds


def read_checkpoint_with_fallback(path: str,
                                  allow_previous: bool = True) -> dict:
    """Load ``path``, falling back to its ``.prev`` rotation on damage.

    This is the checkpoint store's *recovery entry point*: a torn or
    bit-rotted primary falls back to the rotation written just before
    it; only when both are unusable does :class:`CheckpointError`
    propagate.  A primary of another format version is not damage and
    is refused as it stands (:class:`CheckpointVersionError`), whatever
    ``.prev`` holds.  :func:`resume_campaign` builds on this, and the
    durability auditor drives it against every enumerated crash state.
    """
    try:
        return read_checkpoint(path)
    except CheckpointVersionError:
        raise
    except CheckpointError:
        prev = path + ".prev"
        if not allow_previous or not os.path.exists(prev):
            raise
        return read_checkpoint(prev)


def read_checkpoint(path: str) -> dict:
    """Load and verify a checkpoint; raises CheckpointError on damage."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") \
            from exc
    try:
        blob = unpack_checksummed(_MAGIC, data, what=f"checkpoint {path!r}")
    except ValueError as exc:
        if "wrong magic" in str(exc):
            raise CheckpointError(
                f"{path!r} is not a campaign checkpoint") from exc
        raise CheckpointError(str(exc)) from exc
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(f"checkpoint {path!r} does not deserialize: "
                              f"{exc}") from exc
    if payload.get("version") != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint {path!r} has format version "
            f"{payload.get('version')!r}, expected {FORMAT_VERSION}")
    return payload


# ----------------------------------------------------------------------
# Engine state capture / restore
# ----------------------------------------------------------------------
def capture_state(engine) -> dict:
    """Snapshot every mutable piece of one campaign's state.

    The returned dict holds live references; callers must serialize it
    before the engine advances (``write_engine_checkpoint`` pickles it
    immediately).
    """
    storage = engine.storage
    store = storage.store
    state = {
        "vclock": engine.vclock,
        "next_sample": engine._next_sample,
        "next_checkpoint": engine._next_checkpoint,
        "set_up": engine._set_up,
        "pending_round": engine._pending_round,
        "seed_image_id": engine._seed_image_id,
        "seed_image_bytes": engine._seed_image_bytes,
        "rng": engine.rng.getstate(),
        "queue_entries": engine.queue.entries,
        "queue_next_id": engine.queue._next_id,
        "branch_virgin": engine.branch_cov.virgin,
        "pm_virgin": engine.pm_cov.virgin,
        "stats": engine.stats,
        "tree_root": engine.tree.root_id if engine.tree else None,
        "tree_nodes": engine.tree._nodes if engine.tree else None,
        "store": {
            "by_hash": store._by_hash,
            "raw_bytes": store.raw_bytes,
            "stored_bytes": store.stored_bytes,
            "duplicates_rejected": store.duplicates_rejected,
            "quarantined": store._quarantined,
            "corrupt_quarantined": store.corrupt_quarantined,
        },
        "staging": storage._staging,
        "staging_meta": (storage._staged_bytes, storage.decompressions,
                         storage.evictions, storage.load_faults),
        "supervisor": engine.supervisor.getstate(),
        "env_faults": (engine.env_faults.getstate()
                       if engine.env_faults is not None else None),
        # Observability: metrics registry values plus the trace bus
        # sequence/sampling phase, so a resumed campaign replays its
        # interrupted tail with identical metric totals and identical
        # seq event labels (shard-merge dedup depends on it).
        "observe": {
            "metrics": engine.metrics.snapshot(),
            "metrics_host": engine.metrics.snapshot(host_dependent=True),
            "bus": engine.trace.getstate(),
        },
    }
    return state


def restore_state(engine, state: dict) -> None:
    """Restore a :func:`capture_state` snapshot onto a fresh engine.

    The engine must have been constructed with the same campaign-shaping
    arguments (workload, config, seed inputs, fault plan) as the one
    that was captured — :func:`resume_campaign` guarantees this from the
    checkpoint's embedded metadata.
    """
    from repro.core.testcase import TestCaseTree

    engine.vclock = state["vclock"]
    engine._next_sample = state["next_sample"]
    engine._next_checkpoint = state["next_checkpoint"]
    engine._set_up = state["set_up"]
    engine._pending_round = state["pending_round"]
    engine._seed_image_id = state["seed_image_id"]
    engine._seed_image_bytes = state["seed_image_bytes"]
    engine.rng.setstate(state["rng"])
    engine.queue.entries = list(state["queue_entries"])
    engine.queue._next_id = state["queue_next_id"]
    engine.branch_cov.virgin = dict(state["branch_virgin"])
    engine.pm_cov.virgin = dict(state["pm_virgin"])
    engine.stats = state["stats"]
    # The supervisor and execution backend hold the stats reference for
    # their counters; rebind them to the restored object or their
    # updates would vanish.
    engine.supervisor.stats = engine.stats
    engine.supervisor.setstate(state["supervisor"])
    engine.backend.stats = engine.stats
    # The backend is process state, not campaign state: the checkpoint
    # records its *configuration* (the RunConfig in campaign_meta), and
    # the resumed engine re-resolved it at construction — possibly
    # degrading to in-process on a platform without fork.  The restored
    # stats must reflect the backend actually running *now*.
    engine.stats.isolation_backend = engine.backend.name
    engine.stats.isolation_fallback = engine._isolation_fallback
    if state["tree_root"] is not None:
        tree = TestCaseTree(state["tree_root"])
        tree._nodes = dict(state["tree_nodes"])
        engine.tree = tree
    else:
        engine.tree = None
    store = engine.storage.store
    store._by_hash = dict(state["store"]["by_hash"])
    store.raw_bytes = state["store"]["raw_bytes"]
    store.stored_bytes = state["store"]["stored_bytes"]
    store.duplicates_rejected = state["store"]["duplicates_rejected"]
    store._quarantined = dict(state["store"]["quarantined"])
    store.corrupt_quarantined = state["store"]["corrupt_quarantined"]
    engine.storage._staging = OrderedDict(state["staging"])
    (engine.storage._staged_bytes, engine.storage.decompressions,
     engine.storage.evictions, engine.storage.load_faults) = \
        state["staging_meta"]
    if engine.env_faults is not None and state["env_faults"] is not None:
        engine.env_faults.setstate(state["env_faults"])
    observe = state["observe"]
    engine.metrics.restore(observe["metrics"], observe["metrics_host"])
    engine.trace.setstate(observe["bus"])


def write_engine_checkpoint(path: str, engine) -> None:
    """Snapshot ``engine`` and atomically persist it to ``path``.

    The execution backend itself is process state (pipes, worker PIDs)
    and is never captured; resume rebuilds it from the RunConfig in
    ``campaign_meta``.
    """
    rotate_previous(path)
    write_checkpoint(path, {
        "version": FORMAT_VERSION,
        "meta": dict(engine.campaign_meta),
        "state": capture_state(engine),
    })


def resume_campaign(path: str, injector=None, allow_previous: bool = True):
    """Rebuild the checkpointed campaign, ready to continue running.

    Returns the restored :class:`~repro.fuzz.engine.FuzzEngine`, built
    for the checkpointed configuration; call ``run(budget)`` on it to
    continue the campaign.
    ``injector`` re-attaches a workload-level BugInjector, which is
    process state a checkpoint cannot carry.

    A damaged primary checkpoint (torn write, bit rot) falls back to
    the ``.prev`` rotation when ``allow_previous`` is set; only when
    both are unusable does :class:`CheckpointError` propagate.  A
    primary of another format version is refused without a fallback.
    """
    from repro.core.config import config_by_name
    from repro.core.pmfuzz import build_engine

    payload = read_checkpoint_with_fallback(path,
                                            allow_previous=allow_previous)
    meta = payload["meta"]
    if not meta.get("workload"):
        raise CheckpointError(
            f"checkpoint {path!r} carries no campaign metadata; it was "
            "taken from a hand-built engine and cannot self-resume")
    engine = build_engine(
        meta["workload"],
        config_by_name(meta["config"]),
        bugs=frozenset(meta["bugs"]),
        seed_inputs=[bytes(s) for s in meta["seed_inputs"]],
        injector=injector,
        fault_plan=meta["fault_plan"],
        **meta["engine_kwargs"],
    )
    restore_state(engine, payload["state"])
    return engine
