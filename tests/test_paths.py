"""Unit and property tests for VFS path handling."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EBUSY, EINVAL, ENAMETOOLONG, FsError
from repro.fs import Ext2FileSystemType
from repro.kernel import Kernel
from repro.storage import RAMBlockDevice
from repro.util.paths import NAME_MAX, PATH_MAX, normalize_path, split_path


class TestNormalize:
    def test_root(self):
        assert normalize_path("/") == "/"

    def test_collapses_slashes(self):
        assert normalize_path("//a///b/") == "/a/b"

    def test_drops_dot(self):
        assert normalize_path("/a/./b/.") == "/a/b"

    def test_dotdot_collapses(self):
        assert normalize_path("/a/b/../c") == "/a/c"

    def test_dotdot_at_root_stays_root(self):
        assert normalize_path("/../..") == "/"

    def test_relative_rejected(self):
        with pytest.raises(FsError) as excinfo:
            normalize_path("a/b")
        assert excinfo.value.code == EINVAL

    def test_empty_rejected(self):
        with pytest.raises(FsError) as excinfo:
            normalize_path("")
        assert excinfo.value.code == EINVAL

    def test_long_component_rejected(self):
        with pytest.raises(FsError) as excinfo:
            normalize_path("/" + "x" * (NAME_MAX + 1))
        assert excinfo.value.code == ENAMETOOLONG

    def test_long_path_rejected(self):
        path = "/" + "/".join(["ab"] * (PATH_MAX // 2))
        with pytest.raises(FsError) as excinfo:
            normalize_path(path)
        assert excinfo.value.code == ENAMETOOLONG


class TestSplitJoin:
    def test_split_simple(self):
        assert split_path("/a/b") == ("/a", "b")

    def test_split_top_level(self):
        assert split_path("/a") == ("/", "a")

    def test_split_root(self):
        assert split_path("/") == ("/", "")


class TestSubpath:
    """The subpath rule as ``Kernel.mount`` applies it: no mount may sit
    at or beneath an existing mountpoint."""

    @staticmethod
    def mount(kernel, mountpoint):
        fstype = Ext2FileSystemType()
        device = RAMBlockDevice(256 * 1024, clock=kernel.clock)
        fstype.mkfs(device)
        kernel.mount(fstype, device, mountpoint)

    def refused(self, clock, existing, mountpoint):
        kernel = Kernel(clock)
        self.mount(kernel, existing)
        with pytest.raises(FsError) as excinfo:
            self.mount(kernel, mountpoint)
        return excinfo.value.code == EBUSY

    def test_self(self, clock):
        assert self.refused(clock, "/a/b", "/a/b")

    def test_child(self, clock):
        assert self.refused(clock, "/a/b", "/a/b/c")

    def test_sibling_prefix_not_subpath(self, clock):
        kernel = Kernel(clock)
        self.mount(kernel, "/a/b")
        self.mount(kernel, "/a/bc")
        assert sorted(m.mountpoint for m in kernel.mounts()) == \
            ["/a/b", "/a/bc"]

    def test_root_is_ancestor_of_all(self, clock):
        assert self.refused(clock, "/", "/anything")


@st.composite
def safe_components(draw):
    return draw(st.lists(
        st.text(alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
                min_size=1, max_size=10),
        min_size=0, max_size=6,
    ))


@given(safe_components())
def test_property_normalize_idempotent(components):
    path = "/" + "/".join(components)
    normalized = normalize_path(path)
    assert normalize_path(normalized) == normalized


@given(safe_components())
def test_property_split_join_roundtrip(components):
    path = normalize_path("/" + "/".join(components))
    if path == "/":
        return
    parent, name = split_path(path)
    assert parent.rstrip("/") + "/" + name == path


@given(safe_components())
def test_property_normalized_has_no_empty_components(components):
    path = normalize_path("/" + "//".join(components) + "/")
    assert "//" not in path
    assert path == "/" or not path.endswith("/")
