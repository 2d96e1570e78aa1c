"""The VFS seam and the durable helpers routed through it."""

import os

import pytest

from repro._util import atomic_write_bytes, replace_durable
from repro._vfs import OS_VFS, current_vfs, install_vfs
from repro.audit.trace import TracingVFS


@pytest.fixture
def traced(tmp_path):
    """Install a TracingVFS rooted at tmp_path for the test's duration."""
    tracer = TracingVFS(str(tmp_path))
    old = install_vfs(tracer)
    try:
        yield tracer
    finally:
        install_vfs(old)


def _kinds(tracer):
    return [op.kind for op in tracer.ops]


class TestSeam:
    def test_default_is_os_vfs(self):
        assert current_vfs() is OS_VFS

    def test_install_returns_old_and_none_restores(self, tmp_path):
        tracer = TracingVFS(str(tmp_path))
        old = install_vfs(tracer)
        try:
            assert old is OS_VFS
            assert current_vfs() is tracer
        finally:
            install_vfs(None)
        assert current_vfs() is OS_VFS

    def test_ops_outside_root_are_performed_but_not_recorded(
            self, tmp_path, traced):
        outside = tmp_path.parent / "outside.bin"
        current_vfs().write_bytes(str(outside), b"x")
        try:
            assert outside.read_bytes() == b"x"
            assert traced.ops == []
        finally:
            outside.unlink()

    def test_paths_recorded_root_relative(self, tmp_path, traced):
        sub = tmp_path / "a"
        sub.mkdir()
        current_vfs().write_bytes(str(sub / "f.bin"), b"hi")
        assert [(op.kind, op.path) for op in traced.ops] == [
            ("write", os.path.join("a", "f.bin"))]


class TestAtomicWriteBytes:
    def test_routes_write_fsync_replace_fsyncdir(self, tmp_path, traced):
        atomic_write_bytes(str(tmp_path / "out.bin"), b"payload")
        assert _kinds(traced) == ["write", "fsync", "replace", "fsync_dir"]
        assert (tmp_path / "out.bin").read_bytes() == b"payload"

    def test_no_fsync_variant_skips_both_syncs(self, tmp_path, traced):
        atomic_write_bytes(str(tmp_path / "out.bin"), b"p", fsync=False)
        assert _kinds(traced) == ["write", "replace"]


class TestReplaceDurable:
    def test_same_dir_rename_fsyncs_parent_once(self, tmp_path, traced):
        (tmp_path / "src").write_bytes(b"v")
        replace_durable(str(tmp_path / "src"), str(tmp_path / "dst"))
        assert _kinds(traced) == ["replace", "fsync_dir"]
        assert (tmp_path / "dst").read_bytes() == b"v"

    def test_cross_dir_fsyncs_destination_first(self, tmp_path, traced):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / "f").write_bytes(b"v")
        replace_durable(str(tmp_path / "a" / "f"),
                        str(tmp_path / "b" / "f"))
        assert _kinds(traced) == ["replace", "fsync_dir", "fsync_dir"]
        assert traced.ops[1].path == "b"  # new name durable before old dies
        assert traced.ops[2].path == "a"
