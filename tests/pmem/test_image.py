"""Tests for PM image serialization, validation and identity."""

import zlib

import pytest

from repro.errors import InvalidImageError
from repro.pmem.image import IMAGE_HEADER_SIZE, PMImage, derive_uuid


class TestCreation:
    def test_create_zeroed(self):
        img = PMImage.create("layout", 1024)
        assert len(img) == 1024
        assert bytes(img.payload) == b"\0" * 1024

    def test_create_rejects_nonpositive_size(self):
        with pytest.raises(InvalidImageError):
            PMImage.create("layout", 0)

    def test_uuid_is_constant_per_layout(self):
        a = PMImage.create("btree", 64)
        b = PMImage.create("btree", 64)
        assert a.uuid == b.uuid

    def test_uuid_differs_across_layouts(self):
        assert derive_uuid("btree") != derive_uuid("rbtree")

    def test_uuid_is_16_bytes(self):
        assert len(derive_uuid("anything")) == 16

    def test_overlong_layout_rejected(self):
        with pytest.raises(InvalidImageError):
            PMImage.create("x" * 40, 64)

    def test_copy_is_independent(self):
        a = PMImage.create("layout", 64)
        b = a.copy()
        b.payload[0] = 0xFF
        assert a.payload[0] == 0


class TestSerialization:
    def test_round_trip(self):
        img = PMImage.create("layout", 256)
        img.payload[10:13] = b"abc"
        restored = PMImage.from_bytes(img.to_bytes())
        assert restored.layout == "layout"
        assert bytes(restored.payload) == bytes(img.payload)
        assert restored.uuid == img.uuid

    def test_compressed_round_trip(self):
        img = PMImage.create("layout", 4096)
        img.payload[100] = 42
        data = img.deflated()
        assert len(data) < 4096  # zeros compress well
        restored = PMImage.from_record(zlib.decompress(data))
        assert restored.payload[100] == 42

    def test_header_size(self):
        img = PMImage.create("layout", 16)
        assert len(img.to_bytes()) == IMAGE_HEADER_SIZE + 16

    def test_bad_magic_rejected(self):
        img = PMImage.create("layout", 64)
        data = bytearray(img.to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(InvalidImageError):
            PMImage.from_bytes(bytes(data))

    def test_corrupt_payload_rejected(self):
        img = PMImage.create("layout", 64)
        data = bytearray(img.to_bytes())
        data[IMAGE_HEADER_SIZE + 5] ^= 0x01
        with pytest.raises(InvalidImageError):
            PMImage.from_bytes(bytes(data))

    def test_truncated_rejected(self):
        img = PMImage.create("layout", 64)
        with pytest.raises(InvalidImageError):
            PMImage.from_bytes(img.to_bytes()[:-1])

    def test_layout_mismatch_rejected(self):
        img = PMImage.create("btree", 64)
        with pytest.raises(InvalidImageError):
            PMImage.from_bytes(img.to_bytes(), expected_layout="rbtree")

    def test_layout_match_accepted(self):
        img = PMImage.create("btree", 64)
        PMImage.from_bytes(img.to_bytes(), expected_layout="btree")

    def test_random_mutation_usually_invalid(self):
        """The AFL++ w/ ImgFuzz failure mode (Figure 5a)."""
        import random

        rng = random.Random(1)
        img = PMImage.create("layout", 1024)
        invalid = 0
        for _ in range(50):
            data = bytearray(img.to_bytes())
            for _ in range(4):
                data[rng.randrange(len(data))] = rng.randrange(256)
            try:
                PMImage.from_bytes(bytes(data))
            except InvalidImageError:
                invalid += 1
        assert invalid >= 45  # almost all random mutations abort


class TestValidate:
    """``validate`` checks what can be wrong with an in-memory image."""

    def test_valid_image_passes(self):
        PMImage.create("btree", 64).validate(expected_layout="btree")
        PMImage.create("btree", 64).validate()

    def test_layout_mismatch_message_matches_from_bytes(self):
        img = PMImage.create("btree", 64)
        with pytest.raises(InvalidImageError) as from_bytes:
            PMImage.from_bytes(img.to_bytes(), expected_layout="rbtree")
        with pytest.raises(InvalidImageError) as validate:
            img.validate(expected_layout="rbtree")
        assert str(validate.value) == str(from_bytes.value)
        assert str(validate.value) == (
            "layout mismatch: image is 'btree', expected 'rbtree'")

    @pytest.mark.parametrize("uuid", [b"short", b"x" * 17])
    def test_mutated_uuid_rejected(self, uuid):
        img = PMImage.create("btree", 64)
        img.uuid = uuid
        with pytest.raises(InvalidImageError,
                           match=f"uuid must be 16 bytes, got {len(uuid)}"):
            img.validate(expected_layout="btree")

    def test_mutated_overlong_layout_rejected(self):
        img = PMImage.create("btree", 64)
        img.layout = "x" * 40
        with pytest.raises(InvalidImageError, match="layout name too long"):
            img.validate()


class TestIdentity:
    def test_content_hash_stable(self):
        a = PMImage.create("layout", 64)
        b = PMImage.create("layout", 64)
        assert a.content_hash() == b.content_hash()

    def test_content_hash_sensitive_to_payload(self):
        a = PMImage.create("layout", 64)
        b = PMImage.create("layout", 64)
        b.payload[0] = 1
        assert a.content_hash() != b.content_hash()

    def test_content_hash_sensitive_to_layout(self):
        a = PMImage.create("a", 64)
        b = PMImage.create("b", 64)
        assert a.content_hash() != b.content_hash()
