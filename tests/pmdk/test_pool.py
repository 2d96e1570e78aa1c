"""Tests for pool creation, opening, root objects and validation."""

import pytest

from repro.errors import InvalidImageError, SegmentationFault, SimulatedCrash
from repro.pmem.image import PMImage
from repro.pmdk.pool import OID_NULL, PmemObjPool


class TestCreateOpen:
    def test_create_then_close_then_open(self, pool):
        image = pool.close()
        reopened = PmemObjPool.open(image, "test")
        assert reopened.root_oid == OID_NULL

    def test_open_validates_layout(self, pool):
        image = pool.close()
        with pytest.raises(InvalidImageError):
            PmemObjPool.open(image, "other_layout")

    def test_open_rejects_garbage_image(self):
        garbage = PMImage(layout="test", payload=bytearray(4096))
        with pytest.raises(InvalidImageError):
            PmemObjPool.open(garbage, "test")  # no pool magic

    def test_open_copies_image(self, pool, node_type):
        image = pool.close()
        reopened = PmemObjPool.open(image, "test")
        root = reopened.root(node_type)
        root.n = 5
        reopened.persist(root.offset, 4, site="t")
        # The caller's image must be untouched.
        again = PmemObjPool.open(image, "test")
        assert again.root_oid == OID_NULL

    def test_crash_image_contains_only_persisted(self, pool):
        oid = pool.zalloc(64)
        pool.write(oid, b"persisted", site="t")
        pool.persist(oid, 9, site="t")
        pool.write(oid + 32, b"volatile", site="t")
        img = pool.crash_image()
        assert bytes(img.payload[oid:oid + 9]) == b"persisted"
        assert bytes(img.payload[oid + 32:oid + 40]) == b"\0" * 8


class TestRoot:
    def test_root_allocated_on_first_use(self, pool, node_type):
        assert pool.root_oid == OID_NULL
        root = pool.root(node_type)
        assert pool.root_oid == root.offset
        assert root.n == 0

    def test_root_stable_across_calls(self, pool, node_type):
        a = pool.root(node_type)
        b = pool.root(node_type)
        assert a.offset == b.offset

    def test_root_survives_reopen(self, pool, node_type):
        root = pool.root(node_type)
        root.n = 9
        pool.persist(root.offset, 4, site="t")
        image = pool.close()
        reopened = PmemObjPool.open(image, "test")
        assert reopened.typed(reopened.root_oid, node_type).n == 9


class TestAccessChecks:
    def test_null_deref_segfaults(self, pool, node_type):
        with pytest.raises(SegmentationFault):
            pool.typed(OID_NULL, node_type)

    def test_out_of_bounds_typed_segfaults(self, pool, node_type):
        with pytest.raises(SegmentationFault):
            pool.typed(pool.domain.size - 1, node_type)

    def test_null_read_segfaults(self, pool):
        with pytest.raises(SegmentationFault):
            pool.read(0, 8)

    def test_null_write_segfaults(self, pool):
        with pytest.raises(SegmentationFault):
            pool.write(0, b"x")

    def test_atomic_alloc_free_cycle(self, pool):
        oid = pool.zalloc(128)
        pool.write(oid, b"data", site="t")
        pool.free(oid)
        assert pool.alloc(128) == oid


class TestNoAliasing:
    """The pool never shares a buffer with the caller's image or with an
    image it has returned: the persistence domain copies the payload in
    at open, and ``close``/``crash_image`` copy it out."""

    @pytest.fixture
    def image(self, pool, node_type):
        root = pool.root(node_type)
        root.n = 3
        pool.persist(root.offset, 4, site="t")
        return pool.close()

    def _mutate(self, pool, node_type):
        root = pool.typed(pool.root_oid, node_type)
        root.n = 77
        pool.persist(root.offset, node_type._size_, site="t")
        oid = pool.zalloc(64)
        pool.write(oid, b"x" * 64, site="t")
        return oid

    def test_close_leaves_caller_payload_intact(self, image, node_type):
        before = bytes(image.payload)
        pool = PmemObjPool.open(image, "test")
        self._mutate(pool, node_type)
        closed = pool.close()
        assert bytes(image.payload) == before
        assert closed is not image and closed.payload is not image.payload
        assert bytes(closed.payload) != before

    def test_simulated_crash_leaves_caller_payload_intact(self, image,
                                                          node_type):
        before = bytes(image.payload)
        pool = PmemObjPool.open(image, "test")
        pool.domain.crash_at_fence = pool.domain.fence_count + 1
        with pytest.raises(SimulatedCrash):
            self._mutate(pool, node_type)
        crashed = pool.crash_image()
        assert bytes(image.payload) == before
        assert bytes(crashed.payload) != before

    def test_segfault_leaves_caller_payload_intact(self, image, node_type):
        before = bytes(image.payload)
        pool = PmemObjPool.open(image, "test")
        self._mutate(pool, node_type)
        with pytest.raises(SegmentationFault):
            pool.read(pool.domain.size - 4, 8)
        pool.crash_image()
        assert bytes(image.payload) == before

    def test_domain_writes_after_close_do_not_reach_the_image(self, image,
                                                              node_type):
        pool = PmemObjPool.open(image, "test")
        oid = self._mutate(pool, node_type)
        closed = pool.close()
        snapshot = bytes(closed.payload)
        pool.domain.store(oid, b"y" * 64)
        pool.domain.persist(oid, 64)
        assert bytes(closed.payload) == snapshot

    def test_domain_writes_after_crash_image_do_not_reach_it(self, image,
                                                             node_type):
        pool = PmemObjPool.open(image, "test")
        oid = self._mutate(pool, node_type)
        pool.persist(oid, 64, site="t")
        crashed = pool.crash_image()
        snapshot = bytes(crashed.payload)
        pool.domain.store(oid, b"y" * 64)
        pool.domain.persist(oid, 64)
        assert bytes(crashed.payload) == snapshot
        assert bytes(pool.crash_image().payload) != snapshot
