"""The stored image format: dedup keys, streams and old blobs.

``ImageStore.put`` hashes and compresses each image straight from its
payload buffer, never building the serialized copy.  These tests pin
that the result is exactly what the copying formulation gives, on real
images captured from short campaigns: the same SHA-256 ID, a zlib
stream that decompresses to ``to_bytes()``, the same raw byte count,
and a compression ratio within 2% of plain level-6 zlib.  Blobs written
the old way (``zlib.compress(to_bytes(), 6)``, as older checkpoints
hold them) must still read back.
"""

import hashlib
import zlib

import pytest

from repro.core.config import PMFUZZ
from repro.core.dedup import ImageStore
from repro.core.pmfuzz import build_engine
from repro.fuzz.rng import DeterministicRandom


def _campaign_images(workload, budget=0.4):
    engine = build_engine(workload, PMFUZZ,
                          rng=DeterministicRandom(3).fork(f"{workload}/fmt"))
    try:
        engine.run(budget)
    finally:
        engine.close()
    store = engine.storage.store
    return [store.get(image_id) for image_id in sorted(store._by_hash)]


@pytest.fixture(scope="module", params=["hashmap_tx", "btree"])
def images(request):
    captured = _campaign_images(request.param)
    assert len(captured) > 10, "campaign produced too few images to compare"
    return captured


def _reference_hash(image):
    return hashlib.sha256(image.layout.encode("utf-8") + b"\0"
                          + bytes(image.payload)).hexdigest()


class TestStoredFormat:
    def test_content_hash_matches_reference(self, images):
        for image in images:
            assert image.content_hash() == _reference_hash(image)

    def test_stored_stream_decompresses_to_serialized_bytes(self, images):
        store = ImageStore(compress=True)
        for image in images:
            image_id, is_new = store.put(image)
            assert is_new
            assert zlib.decompress(store._by_hash[image_id]) == \
                image.to_bytes()
            restored = store.get(image_id)
            assert restored == image
            assert store.raw_serialized(image_id) == image.to_bytes()

    def test_compressed_to_bytes_uses_the_stored_stream(self, images):
        image = images[-1]
        store = ImageStore(compress=True)
        image_id, _ = store.put(image)
        assert image.to_bytes(compress=True) == \
            b"PMFZ" + store._by_hash[image_id]

    def test_raw_bytes_counts_header_and_payload(self, images):
        store = ImageStore(compress=True)
        for image in images:
            store.put(image)
        assert store.raw_bytes == sum(len(img.to_bytes()) for img in images)

    def test_ratio_within_two_percent_of_level_six(self, images):
        store = ImageStore(compress=True)
        for image in images:
            store.put(image)
        level6 = sum(len(zlib.compress(img.to_bytes(), 6)) for img in images)
        reference = store.raw_bytes / level6
        assert store.compression_ratio == pytest.approx(reference, rel=0.02)
        assert store.compression_ratio > 3

    def test_old_level_six_blobs_still_read_back(self, images):
        """A blob planted in ``_by_hash`` the way ``restore_state`` does
        for a checkpoint written with ``zlib.compress(..., 6)``."""
        fresh = ImageStore(compress=True)
        legacy = ImageStore(compress=True)
        for image in images:
            image_id, _ = fresh.put(image)
            legacy._by_hash[image_id] = zlib.compress(image.to_bytes(), 6)
            assert legacy.get(image_id) == fresh.get(image_id)
            assert legacy.raw_serialized(image_id) == \
                fresh.raw_serialized(image_id)
