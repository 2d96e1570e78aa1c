"""Corruption quarantine in the image store.

A damaged image inside the store costs one test case (typed
``CorpusCorruptionError`` + quarantine counter), never the campaign or
its resume.
"""

import pytest

from repro.core.config import config_by_name
from repro.core.dedup import ImageStore
from repro.core.pmfuzz import build_engine
from repro.core.storage import TestCaseStorage
from repro.errors import CorpusCorruptionError
from repro.fuzz.engine import FuzzEngine
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
        resumed = FuzzEngine.resume(ckpt)
        assert resumed.storage.store.corrupt_quarantined == 1
        assert image_id in resumed.storage.store._quarantined
        with pytest.raises(CorpusCorruptionError, match="quarantined"):
            resumed.storage.store.get(image_id)
