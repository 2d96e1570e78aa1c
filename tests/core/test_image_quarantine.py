"""Corruption quarantine in the image store.

A damaged image inside the store costs one test case (typed
``CorpusCorruptionError`` + quarantine counter), never the campaign or
its resume.
"""

import struct
import zlib

import pytest

from repro.core.config import config_by_name
from repro.core.dedup import ImageStore
from repro.core.pmfuzz import build_engine
from repro.core.storage import TestCaseStorage
from repro.errors import CorpusCorruptionError, InvalidImageError
from repro.pmem.image import PMImage, derive_uuid
from repro.resilience.checkpoint import resume_campaign
from repro.workloads.registry import get_workload


class TestImageStoreQuarantine:
    def _store_with_image(self, compress=True):
        store = ImageStore(compress=compress)
        image = get_workload("btree").create_image()
        image_id, is_new = store.put(image)
        assert is_new
        return store, image_id

    def test_bitflipped_stored_bytes_raise_typed_error(self):
        store, image_id = self._store_with_image()
        blob = bytearray(store._by_hash[image_id])
        blob[len(blob) // 2] ^= 0xFF
        store._by_hash[image_id] = bytes(blob)
        with pytest.raises(CorpusCorruptionError):
            store.get(image_id)
        assert store.corrupt_quarantined == 1
        assert image_id not in store._by_hash

    def test_truncated_stored_bytes_raise_typed_error(self):
        store, image_id = self._store_with_image(compress=False)
        store._by_hash[image_id] = store._by_hash[image_id][:16]
        with pytest.raises(CorpusCorruptionError):
            store.get(image_id)
        assert store.corrupt_quarantined == 1

    def test_quarantined_entry_is_never_served_again(self):
        store, image_id = self._store_with_image()
        store._by_hash[image_id] = b"\x00" * 10
        with pytest.raises(CorpusCorruptionError):
            store.get(image_id)
        with pytest.raises(CorpusCorruptionError, match="quarantined"):
            store.get(image_id)
        assert store.corrupt_quarantined == 1  # counted once

    def test_unknown_id_raises_typed_error(self):
        store = ImageStore()
        with pytest.raises(CorpusCorruptionError):
            store.get("deadbeef" * 8)

    def test_storage_load_path_routes_through_quarantine(self):
        store, image_id = self._store_with_image()
        storage = TestCaseStorage(store)
        store._by_hash[image_id] = b"damaged beyond recognition"
        with pytest.raises(CorpusCorruptionError):
            storage.load(image_id)
        assert storage.load_faults == 1
        assert storage.corrupt_quarantined == 1

    def test_quarantine_counters_survive_checkpoint_resume(self, tmp_path):
        ckpt = str(tmp_path / "c.ckpt")
        engine = build_engine("btree", config_by_name("pmfuzz"),
                              checkpoint_path=ckpt)
        engine.setup()
        store = engine.storage.store
        image_id = engine._seed_image_id
        store._by_hash[image_id] = b"\xff" * 24
        engine.storage._staging.clear()  # force the SSD-tier read
        engine.storage._staged_bytes = 0
        with pytest.raises(CorpusCorruptionError):
            engine.storage.load(image_id)
        assert store.corrupt_quarantined == 1
        engine.checkpoint()
        resumed = resume_campaign(ckpt)
        assert resumed.storage.store.corrupt_quarantined == 1
        assert image_id in resumed.storage.store._quarantined
        with pytest.raises(CorpusCorruptionError, match="quarantined"):
            resumed.storage.store.get(image_id)


def _record(indices, lines, size=4096, count=None, crc=None):
    """A sparse image record with the given fields; the CRC-32 is made
    right unless given, so the structural checks are what must fire."""
    head = struct.pack("<8s24sI16sI", b"PMLINES1", b"btree".ljust(24, b"\0"),
                       size, derive_uuid("btree"),
                       len(indices) if count is None else count)
    body = struct.pack("<%dI" % len(indices), *indices) + lines
    if crc is None:
        crc = zlib.crc32(body, zlib.crc32(head))
    return head + struct.pack("<I", crc) + body


_LINE = bytes(range(1, 65))


class TestSparseRecordDamage:
    """A damaged sparse record is typed ``CorpusCorruptionError`` and
    quarantined through ``get`` — never ``struct.error`` or
    ``IndexError`` from the decoder."""

    def test_well_formed_record_reads_back(self):
        image = PMImage.from_record(_record([1, 5], _LINE * 2))
        assert image.payload[64:128] == _LINE
        assert image.payload[320:384] == _LINE
        assert image.payload.count(0) == 4096 - 128

    @pytest.mark.parametrize("record, message", [
        (_record([1], _LINE, crc=0), "checksum"),
        (_record([1, 2], _LINE * 2)[:-1], "checksum"),
        (_record([1], _LINE)[:30], "truncated"),
        (_record([1, 2], b"", count=5), "line table truncated"),
        (_record([64], _LINE), "out of range"),
        (_record([1, 70000], _LINE * 2), "out of range"),
        (_record([3, 1], _LINE * 2), "strictly increasing"),
        (_record([2, 2], _LINE * 2), "strictly increasing"),
        (_record([1, 2], _LINE), "line data size mismatch"),
        (_record([1], _LINE * 2), "line data size mismatch"),
        (_record([0], _LINE, size=10), "payload size mismatch"),
        (b"PMFZIMG1" + _record([1], _LINE)[8:], "magic"),
    ], ids=["bad-crc", "cut-short", "truncated-head", "truncated-table",
            "index-past-end", "index-far-past-end", "unsorted",
            "duplicated", "missing-line-bytes", "extra-line-bytes",
            "bytes-past-size", "bad-magic"])
    def test_damage_is_typed_and_quarantined(self, record, message):
        with pytest.raises(InvalidImageError, match=message):
            PMImage.from_record(record)
        store = ImageStore(compress=True)
        image_id = "ab" * 32
        store._by_hash[image_id] = zlib.compress(record)
        with pytest.raises(CorpusCorruptionError, match=message) as err:
            store.get(image_id)
        assert isinstance(err.value.__cause__, InvalidImageError)
        assert store.corrupt_quarantined == 1
        assert image_id not in store._by_hash
        assert store.peek(image_id) is None

    def test_peek_leaves_damage_for_get(self):
        store = ImageStore(compress=True)
        image_id = "cd" * 32
        store._by_hash[image_id] = zlib.compress(_record([3, 1], _LINE * 2))
        assert store.peek(image_id) is None
        assert store.corrupt_quarantined == 0
        with pytest.raises(CorpusCorruptionError):
            store.get(image_id)
        assert store.corrupt_quarantined == 1
