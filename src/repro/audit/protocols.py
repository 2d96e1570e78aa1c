"""The durable protocols under audit, one :class:`AuditProtocol` each.

Every component follows the same shape:

* ``setup(root)`` builds the durable baseline state (this runs *before*
  tracing; the baseline is the snapshot every crash state starts from)
  and returns a context dict of names/keys the checks need;
* ``run(root, ctx)`` performs one representative pass of the protocol's
  real production code — this is what runs under
  :class:`~repro.audit.trace.TracingVFS` and produces the op trace;
* ``recover(root, ctx)`` invokes the component's *real* recovery entry
  point against a materialized crash state;
* ``invariants`` are the typed per-component
  :class:`~repro.audit.invariants.RecoveryInvariant` checks.

Everything is deterministic — fixed payloads, fixed campaign ids,
pinned mtimes — so the same component and budget always enumerate the
same states and render the same report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro._util import atomic_write_bytes, pack_checksummed
from repro.audit.invariants import RecoveryInvariant

#: Component names ``python -m repro audit --component`` accepts.
COMPONENTS = ("checkpoint", "corpus", "corpusdb", "storage", "sink")


@dataclass
class AuditProtocol:
    """One durable protocol wired for auditing."""

    name: str
    description: str
    setup: Callable[[str], dict]
    run: Callable[[str, dict], None]
    recover: Callable[[str, dict], object]
    invariants: List[RecoveryInvariant] = field(default_factory=list)


# ----------------------------------------------------------------------
# checkpoint: write-tmp+fsync+rename with .prev rotation
# ----------------------------------------------------------------------
def _checkpoint_protocol() -> AuditProtocol:
    from repro.resilience.checkpoint import (FORMAT_VERSION,
                                             read_checkpoint_with_fallback,
                                             rotate_previous,
                                             write_checkpoint)

    name = "campaign.ckpt"

    def setup(root: str) -> dict:
        write_checkpoint(os.path.join(root, name),
                         {"version": FORMAT_VERSION, "round": 1,
                          "blob": "x" * 512})
        return {"name": name}

    def run(root: str, ctx: dict) -> None:
        path = os.path.join(root, name)
        rotate_previous(path)
        write_checkpoint(path, {"version": FORMAT_VERSION, "round": 2,
                                "blob": "y" * 512})

    def recover(root: str, ctx: dict):
        # Raises CheckpointError when both primary and .prev are
        # unusable — the runner records that as a violation.
        return read_checkpoint_with_fallback(os.path.join(root, name))

    def check_one_round(root: str, ctx: dict, result) -> Optional[str]:
        if not isinstance(result, dict) or result.get("round") not in (1, 2):
            return (f"recovered payload is neither the old nor the new "
                    f"checkpoint: {result!r}")
        return None

    return AuditProtocol(
        name="checkpoint",
        description="campaign checkpoint write + .prev rotation",
        setup=setup, run=run, recover=recover,
        invariants=[RecoveryInvariant(
            "exactly-one-checkpoint",
            "recovery always loads exactly the old or the new snapshot, "
            "never a torn one and never neither",
            check_one_round)])


# ----------------------------------------------------------------------
# corpus: fleet shared-corpus publish + scrubber recovery
# ----------------------------------------------------------------------
def _corpus_protocol() -> AuditProtocol:
    from repro.core.storage import (CORPUS_ENTRY_MAGIC, CORPUS_ENTRY_SUFFIX,
                                    CorpusScrubber)

    seeds = ("1111aaaa", "2222bbbb")
    new = "3333cccc"

    def entry_blob(tag: str) -> bytes:
        return pack_checksummed(CORPUS_ENTRY_MAGIC,
                                f"payload-{tag}".encode("ascii") * 16)

    def setup(root: str) -> dict:
        corpus = os.path.join(root, "corpus")
        os.makedirs(corpus)
        os.makedirs(os.path.join(root, "quarantine"))
        for tag in seeds:
            with open(os.path.join(corpus, tag + CORPUS_ENTRY_SUFFIX),
                      "wb") as fh:
                fh.write(entry_blob(tag))
        return {"seeds": seeds, "new": new}

    def run(root: str, ctx: dict) -> None:
        corpus = os.path.join(root, "corpus")
        atomic_write_bytes(os.path.join(corpus, new + CORPUS_ENTRY_SUFFIX),
                           entry_blob(new))

    def scrubber(root: str) -> CorpusScrubber:
        return CorpusScrubber(os.path.join(root, "corpus"),
                              os.path.join(root, "quarantine"),
                              tmp_grace=-1.0)

    def recover(root: str, ctx: dict):
        return scrubber(root).scrub()

    def check_seeds(root: str, ctx: dict, result) -> Optional[str]:
        s = scrubber(root)
        for tag in seeds:
            path = os.path.join(root, "corpus", tag + CORPUS_ENTRY_SUFFIX)
            reason = s.verify_file(path)
            if reason is not None:
                return f"pre-existing entry {tag} damaged or lost: {reason}"
        return None

    def check_no_half(root: str, ctx: dict, result) -> Optional[str]:
        s = scrubber(root)
        corpus = os.path.join(root, "corpus")
        for fname in sorted(os.listdir(corpus)):
            if fname.endswith(".tmp"):
                return f"orphaned temp file survived recovery: {fname}"
            if not fname.endswith(CORPUS_ENTRY_SUFFIX):
                continue
            reason = s.verify_file(os.path.join(corpus, fname))
            if reason is not None:
                return f"half-published entry visible after scrub: " \
                       f"{fname} ({reason})"
        return None

    return AuditProtocol(
        name="corpus",
        description="fleet shared-corpus entry publish + scrub recovery",
        setup=setup, run=run, recover=recover,
        invariants=[
            RecoveryInvariant(
                "seeds-preserved",
                "entries durable before the run survive every crash",
                check_seeds),
            RecoveryInvariant(
                "no-half-published",
                "after scrubbing, every visible entry verifies and no "
                "orphaned temp files remain",
                check_no_half)])


# ----------------------------------------------------------------------
# corpusdb: journaled publish / compact / retire + scrub_database
# ----------------------------------------------------------------------
def _corpusdb_protocol() -> AuditProtocol:
    from repro.corpusdb.db import (CorpusDatabase, CorpusDBPaths, entry_key)
    from repro.corpusdb.journal import IntentJournal
    from repro.corpusdb.scrub import scrub_database
    from repro.errors import CorpusCorruptionError

    def payload_for(i: int) -> dict:
        data = f"seed-input-{i}".encode("ascii")
        image = f"seed-image-{i}".encode("ascii") * 8
        return {"key": entry_key(data, image), "data": data, "image": image}

    def setup(root: str) -> dict:
        db = CorpusDatabase.open(os.path.join(root, "db"))
        keys = []
        for i, stamp in enumerate((1000.0, 2000.0, 3000.0)):
            payload = payload_for(i)
            db.publish(payload)
            # Pinned mtimes make the compactor's oldest-first selection
            # identical on every audit run.
            os.utime(db.hot_path(payload["key"]), (stamp, stamp))
            keys.append(payload["key"])
        new = payload_for(99)
        return {"keys": keys, "new": new}

    def open_paths(root: str) -> CorpusDatabase:
        return CorpusDatabase(CorpusDBPaths(os.path.join(root, "db")))

    def run(root: str, ctx: dict) -> None:
        db = open_paths(root)
        db.publish(ctx["new"])
        # Four hot entries, limit two: the two oldest seeds move cold.
        db.compact(hot_limit=2)
        db.retire(ctx["keys"][2])

    def recover(root: str, ctx: dict):
        report, _ = scrub_database(os.path.join(root, "db"), verify=True,
                                   tmp_grace=-1.0, take_lock=False)
        return report

    def check_compacted(root: str, ctx: dict, result) -> Optional[str]:
        db = open_paths(root)
        for key in ctx["keys"][:2]:
            if db.find(key) is None:
                return (f"entry {key[:12]}… lost across the hot->cold "
                        f"move (neither tier holds it after recovery)")
        return None

    def check_journal_empty(root: str, ctx: dict, result) -> Optional[str]:
        pending = IntentJournal(os.path.join(root, "db", "journal")).pending()
        if pending:
            return f"{len(pending)} intents still pending after replay"
        return None

    def check_no_duplicates(root: str, ctx: dict, result) -> Optional[str]:
        db = open_paths(root)
        hot = set(db._tier_keys(db.paths.hot))
        cold = set(db._tier_keys(db.paths.cold))
        both = hot & cold
        if both:
            return (f"{len(both)} entries visible in both tiers after "
                    f"recovery: {sorted(both)[0][:12]}…")
        return None

    def check_visible_healthy(root: str, ctx: dict, result) -> Optional[str]:
        if result is not None and getattr(result, "residual", None):
            return f"undetected corruption after repair: {result.residual}"
        db = open_paths(root)
        for key in [ctx["new"]["key"]] + ctx["keys"]:
            if db.find(key) is None:
                continue  # an absent entry is a legal crash outcome
            try:
                db.get(key)
            except CorpusCorruptionError as exc:
                return f"visible entry {key[:12]}… is damaged: {exc}"
        return None

    return AuditProtocol(
        name="corpusdb",
        description="corpus database publish/compact/retire + scrub",
        setup=setup, run=run, recover=recover,
        invariants=[
            RecoveryInvariant(
                "compacted-never-lost",
                "a hot->cold move can duplicate but never lose an entry",
                check_compacted),
            RecoveryInvariant(
                "journal-drained",
                "journal replay resolves every pending intent",
                check_journal_empty),
            RecoveryInvariant(
                "exactly-once-tiers",
                "no entry is visible in both tiers after recovery",
                check_no_duplicates),
            RecoveryInvariant(
                "visible-entries-healthy",
                "every entry recovery leaves visible loads cleanly",
                check_visible_healthy)])


# ----------------------------------------------------------------------
# storage: claim-by-move quarantine of damaged entries
# ----------------------------------------------------------------------
def _storage_protocol() -> AuditProtocol:
    from repro.core.storage import (CORPUS_ENTRY_MAGIC, CORPUS_ENTRY_SUFFIX,
                                    CorpusScrubber)

    healthy = ("aaaa0000", "bbbb1111")
    damaged = "cccc2222"

    def setup(root: str) -> dict:
        corpus = os.path.join(root, "corpus")
        os.makedirs(corpus)
        os.makedirs(os.path.join(root, "quarantine"))
        blobs = {}
        for tag in healthy:
            blob = pack_checksummed(CORPUS_ENTRY_MAGIC,
                                    f"ok-{tag}".encode("ascii") * 16)
            blobs[tag] = blob
            with open(os.path.join(corpus, tag + CORPUS_ENTRY_SUFFIX),
                      "wb") as fh:
                fh.write(blob)
        bad = b"this is not a checksummed container at all"
        blobs[damaged] = bad
        with open(os.path.join(corpus, damaged + CORPUS_ENTRY_SUFFIX),
                  "wb") as fh:
            fh.write(bad)
        return {"blobs": blobs}

    def scrubber(root: str) -> CorpusScrubber:
        return CorpusScrubber(os.path.join(root, "corpus"),
                              os.path.join(root, "quarantine"),
                              tmp_grace=-1.0)

    def run(root: str, ctx: dict) -> None:
        scrubber(root).scrub()

    def recover(root: str, ctx: dict):
        return scrubber(root).scrub()

    def check_not_lost(root: str, ctx: dict, result) -> Optional[str]:
        name = damaged + CORPUS_ENTRY_SUFFIX
        locations = []
        for sub in ("corpus", "quarantine"):
            try:
                locations += [n for n in os.listdir(os.path.join(root, sub))
                              if n == name or n.startswith(name + ".dup")]
            except OSError:
                pass
        if not locations:
            return ("damaged entry vanished: the quarantine move lost it "
                    "instead of parking it")
        return None

    def check_healthy_intact(root: str, ctx: dict, result) -> Optional[str]:
        for tag in healthy:
            path = os.path.join(root, "corpus", tag + CORPUS_ENTRY_SUFFIX)
            try:
                with open(path, "rb") as fh:
                    if fh.read() != ctx["blobs"][tag]:
                        return f"healthy entry {tag} bytes changed"
            except OSError:
                return f"healthy entry {tag} missing after recovery"
        return None

    def check_corpus_clean(root: str, ctx: dict, result) -> Optional[str]:
        s = scrubber(root)
        corpus = os.path.join(root, "corpus")
        for fname in sorted(os.listdir(corpus)):
            if fname.endswith(CORPUS_ENTRY_SUFFIX) and \
                    s.verify_file(os.path.join(corpus, fname)) is not None:
                return f"damaged entry {fname} still visible after scrub"
        return None

    return AuditProtocol(
        name="storage",
        description="scrubber claim-by-move quarantine of damaged entries",
        setup=setup, run=run, recover=recover,
        invariants=[
            RecoveryInvariant(
                "damaged-never-lost",
                "quarantining parks an entry; no crash point deletes it",
                check_not_lost),
            RecoveryInvariant(
                "healthy-untouched",
                "healthy entries are byte-identical across any crash",
                check_healthy_intact),
            RecoveryInvariant(
                "corpus-clean-after-scrub",
                "no damaged entry stays visible once recovery ran",
                check_corpus_clean)])


# ----------------------------------------------------------------------
# sink: rotating JSONL trace shards + tolerant merge
# ----------------------------------------------------------------------
def _sink_protocol() -> AuditProtocol:
    from repro.observe.events import TraceEvent
    from repro.observe.sink import JsonlTraceSink, merge_shards, shard_name

    rotate_bytes = 256

    def events(lo: int, hi: int) -> list:
        return [TraceEvent(kind="exec", vtime=float(i), seq=i, member=-1,
                           payload={"n": i}) for i in range(lo, hi)]

    def sink_for(root: str) -> JsonlTraceSink:
        return JsonlTraceSink(os.path.join(root, "trace", shard_name(-1)),
                              rotate_bytes=rotate_bytes)

    def setup(root: str) -> dict:
        sink_for(root).write_events(events(0, 4))
        return {"base": list(range(4)), "all": list(range(12))}

    def run(root: str, ctx: dict) -> None:
        sink = sink_for(root)
        sink.write_events(events(4, 8))   # grows past rotate_bytes...
        sink.write_events(events(8, 12))  # ...so this batch rotates first

    def recover(root: str, ctx: dict):
        merged, skipped = merge_shards(os.path.join(root, "trace"))
        return {"seqs": [e.seq for e in merged], "skipped": skipped}

    def check_durable_visible(root: str, ctx: dict,
                              result) -> Optional[str]:
        missing = [s for s in ctx["base"] if s not in result["seqs"]]
        if missing:
            return (f"events durable before the run are missing from the "
                    f"merge: seqs {missing}")
        return None

    def check_consistent(root: str, ctx: dict, result) -> Optional[str]:
        seqs = result["seqs"]
        if len(seqs) != len(set(seqs)):
            return "merged timeline contains duplicate (member, seq) events"
        stray = [s for s in seqs if s not in ctx["all"]]
        if stray:
            return f"merged timeline invented events: seqs {stray}"
        if seqs != sorted(seqs):
            return f"merged timeline out of order: {seqs}"
        return None

    return AuditProtocol(
        name="sink",
        description="rotating JSONL trace shards + tolerant shard merge",
        setup=setup, run=run, recover=recover,
        invariants=[
            RecoveryInvariant(
                "durable-events-visible",
                "an fsynced batch survives any later crash, including "
                "one mid-rotation",
                check_durable_visible),
            RecoveryInvariant(
                "merge-consistent",
                "the merged timeline is deduplicated, ordered, and "
                "contains only events that were written",
                check_consistent)])


# ----------------------------------------------------------------------
_BUILDERS: Dict[str, Callable[[], AuditProtocol]] = {
    "checkpoint": _checkpoint_protocol,
    "corpus": _corpus_protocol,
    "corpusdb": _corpusdb_protocol,
    "storage": _storage_protocol,
    "sink": _sink_protocol,
}


def build_protocol(name: str) -> AuditProtocol:
    """The :class:`AuditProtocol` for one component name."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown audit component {name!r}; known: "
                         f"{', '.join(COMPONENTS)}") from None
