"""The stored image format: dedup keys and sparse streams.

``ImageStore.put`` stores each image as its sparse record — the
non-zero 64-byte lines, their indices, the header fields and a CRC-32 —
deflated as one zlib stream.  These tests pin, on real images captured
from short campaigns, that this changes nothing the campaign can see:
the same SHA-256 ID as hashing the dense payload, ``get`` and ``peek``
returning the image that was put, the same raw byte count, and a
compression ratio no worse than plain level-6 zlib over the dense
serialized bytes.  Each form has one reader: ``PMImage.from_record``
for the inflated record, ``PMImage.from_bytes`` for the dense form
(AFL++ w/ ImgFuzz inputs, the no-SysOpt store).  The forms nothing
writes any more — a deflated dense stream, the ``b"PMFZ"``-prefixed
file — read as damage or as an invalid image.
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
from repro.errors import CorpusCorruptionError, InvalidImageError
from repro.fuzz.executor import Executor
from repro.fuzz.rng import DeterministicRandom
from repro.pmem.image import PMImage
from repro.workloads import get_workload
from repro.workloads.base import RunOutcome


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
            assert image_id == _reference_hash(image)
            record = zlib.decompress(store._by_hash[image_id])
            assert PMImage.from_record(record) == image
            restored = store.get(image_id)
            assert restored == image
            assert store.peek(image_id) == restored

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

    def test_dense_streams_are_not_stored_records(self, images):
        """A compressing store reads only the sparse record: a deflated
        dense stream, a form nothing writes, is quarantined as damage."""
        store = ImageStore(compress=True)
        for image in images[:5]:
            image_id = image.content_hash()
            store._by_hash[image_id] = zlib.compress(image.to_bytes(), 6)
            assert store.peek(image_id) is None
            with pytest.raises(CorpusCorruptionError, match="magic"):
                store.get(image_id)
        assert store.corrupt_quarantined == 5

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
    assert PMImage.from_record(zlib.decompress(image.deflated())) == image
    assert pickle.loads(pickle.dumps(image)) == image


def test_pmfz_prefixed_bytes_are_an_invalid_image():
    """Dense bytes whose magic a mutation turned into ``b"PMFZ"`` plus
    anything else, and the retired ``b"PMFZ"`` + deflated form, are
    rejected like any other bad header: an AFL++ w/ ImgFuzz input
    shaped so runs as ``INVALID_IMAGE``."""
    image = get_workload("hashmap_tx").create_image()
    dense = image.to_bytes()
    assert dense[:4] == b"PMFZ"
    mutated = [dense[:4] + b"\x78\x9c" + dense[6:],
               dense[:4] + zlib.compress(dense, 6),
               b"PMFZ" + image.deflated()]
    executor = Executor(lambda: get_workload("hashmap_tx"))
    for data in mutated:
        with pytest.raises(InvalidImageError):
            PMImage.from_bytes(data)
        result = executor.run_raw_image(data, b"i 1 1\n")
        assert result.outcome is RunOutcome.INVALID_IMAGE
