"""The stored image format: dedup keys, sparse streams and old blobs.

``ImageStore.put`` stores each image as its sparse record — the
non-zero 64-byte lines, their indices, the header fields and a CRC-32 —
deflated as one zlib stream.  These tests pin, on real images captured
from short campaigns, that this changes nothing the campaign can see:
the same SHA-256 ID as hashing the dense payload, ``get`` and ``peek``
returning the image that was put, the same raw byte count, and a
compression ratio no worse than plain level-6 zlib over the dense
serialized bytes.  Blobs written the older ways (``Z_RLE`` or level-6
dense streams, as older checkpoints hold them, and ``b"PMFZ"``-prefixed
``to_bytes(compress=True)`` files) must still read back.
"""

import hashlib
import pickle
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PMFUZZ
from repro.core.dedup import ImageStore
from repro.core.pmfuzz import build_engine
from repro.fuzz.rng import DeterministicRandom
from repro.pmem.image import PMImage


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


def _z_rle_dense(image):
    """The stored stream written before the sparse record."""
    compressor = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    return compressor.compress(image.to_bytes()) + compressor.flush()


class TestStoredFormat:
    def test_content_hash_matches_reference(self, images):
        for image in images:
            assert image.content_hash() == _reference_hash(image)

    def test_stored_stream_decompresses_to_serialized_bytes(self, images):
        store = ImageStore(compress=True)
        for image in images:
            image_id, is_new = store.put(image)
            assert is_new
            assert image_id == _reference_hash(image)
            record = zlib.decompress(store._by_hash[image_id])
            assert PMImage.from_bytes(record) == image
            restored = store.get(image_id)
            assert restored == image
            assert store.peek(image_id) == restored

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

    def test_ratio_at_least_level_six_dense(self, images):
        store = ImageStore(compress=True)
        for image in images:
            store.put(image)
        level6 = sum(len(zlib.compress(img.to_bytes(), 6)) for img in images)
        assert store.compression_ratio >= store.raw_bytes / level6
        assert store.compression_ratio > 3

    def test_uncompressed_store_keeps_dense_bytes(self, images):
        """The no-SysOpt ablation stores ``to_bytes()`` as is."""
        store = ImageStore(compress=False)
        for image in images:
            image_id, _ = store.put(image)
            assert store._by_hash[image_id] == image.to_bytes()
            assert store.get(image_id) == image
            assert store.peek(image_id) == image
        assert store.compression_ratio == 1.0

    def test_old_level_six_blobs_still_read_back(self, images):
        """A blob planted in ``_by_hash`` the way ``restore_state`` does
        for a checkpoint written with ``zlib.compress(..., 6)``."""
        fresh = ImageStore(compress=True)
        legacy = ImageStore(compress=True)
        for image in images:
            image_id, _ = fresh.put(image)
            legacy._by_hash[image_id] = zlib.compress(image.to_bytes(), 6)
            assert legacy.get(image_id) == fresh.get(image_id)
            assert legacy.peek(image_id) == fresh.peek(image_id)

    def test_old_z_rle_blobs_still_read_back(self, images):
        legacy = ImageStore(compress=True)
        for image in images:
            image_id = image.content_hash()
            legacy._by_hash[image_id] = _z_rle_dense(image)
            assert legacy.get(image_id) == image
            assert legacy.peek(image_id) == image

    def test_pmfz_prefixed_files_read_back(self, images):
        for image in images[:5]:
            assert PMImage.from_bytes(b"PMFZ" + _z_rle_dense(image)) == image
            assert PMImage.from_bytes(
                b"PMFZ" + zlib.compress(image.to_bytes(), 6)) == image
            assert PMImage.from_bytes(image.to_bytes(compress=True)) == image

    def test_pickle_ships_the_sparse_lines(self, images):
        for image in images:
            blob = pickle.dumps(image, protocol=4)
            assert len(blob) < len(image.payload) // 16
            assert pickle.loads(blob) == image

    def test_default_pickled_images_still_load(self, images, monkeypatch):
        """Checkpoints written before ``PMImage.__reduce__`` pickled the
        staging tier's images field by field."""
        monkeypatch.delattr(PMImage, "__reduce__")
        blobs = [pickle.dumps(image, protocol=4) for image in images[:5]]
        monkeypatch.undo()
        for image, blob in zip(images, blobs):
            assert b"_from_record" not in blob
            restored = pickle.loads(blob)
            assert type(restored) is PMImage
            assert restored == image


_LAYOUTS = st.sampled_from(["a", "btree", "layout-x"])


def _payloads():
    """All-zero, all-non-zero, and sparse payloads of any size, many of
    them not a multiple of the 64-byte line."""
    sizes = st.integers(min_value=1, max_value=9000)
    zero = sizes.map(bytes)
    nonzero = st.binary(min_size=1, max_size=9000).map(
        lambda data: bytes(b | 1 for b in data))
    sparse = st.tuples(
        sizes, st.lists(st.tuples(st.integers(0, 8999),
                                  st.integers(1, 255)), max_size=40)
    ).map(lambda spec: bytes(_poke(*spec)))
    return st.one_of(zero, nonzero, sparse, st.binary(min_size=1,
                                                      max_size=300))


def _poke(size, writes):
    data = bytearray(size)
    for offset, value in writes:
        data[offset % size] = value
    return data


@given(_payloads(), _LAYOUTS)
@settings(max_examples=80, deadline=None)
def test_sparse_stream_round_trips(payload, layout):
    image = PMImage(layout=layout, payload=bytearray(payload))
    store = ImageStore(compress=True)
    image_id, _ = store.put(image)
    assert image_id == _reference_hash(image)
    assert store.get(image_id) == image
    assert store.peek(image_id) == image
    assert store.raw_bytes == len(image.to_bytes())
    assert PMImage.from_bytes(image.to_bytes(compress=True)) == image
    assert pickle.loads(pickle.dumps(image)) == image
