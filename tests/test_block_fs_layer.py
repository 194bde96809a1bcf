"""The shared block-fs layer's format hooks, on ext2, ext4 and xfs.

ext2/ext4 and xfs run one POSIX layer (``repro.fs.base``); what differs is
supplied by each on-disk format.  These cases pin the format hooks: whether
the xattr block counts in ``st_blocks``, the one-block write reserve ext2
keeps for an indirect block, the xattr block's size limit, and directory
renames that must survive inode-cache eviction.
"""

import pytest

from repro.errors import ENOSPC, ERANGE, FsError
from repro.fs import Ext2FileSystemType, Ext4FileSystemType, XfsFileSystemType
from repro.kernel import Kernel
from repro.kernel.fdtable import O_CREAT, O_WRONLY
from repro.storage import RAMBlockDevice

SMALL_DEV = 256 * 1024
XFS_DEV = 16 * 1024 * 1024

FORMATS = {
    "ext2": (Ext2FileSystemType, SMALL_DEV),
    "ext4": (Ext4FileSystemType, SMALL_DEV),
    "xfs": (XfsFileSystemType, XFS_DEV),
}


def mount(clock, name, inode_cache_capacity=None):
    """Format and mount ``name`` at /mnt/fs; returns (kernel, mounted fs)."""
    fstype_class, size = FORMATS[name]
    if inode_cache_capacity is not None and name != "xfs":
        fstype = fstype_class(inode_cache_capacity=inode_cache_capacity)
    else:
        fstype = fstype_class()
    device = RAMBlockDevice(size, clock=clock)
    fstype.mkfs(device)
    kernel = Kernel(clock)
    kernel.mount(fstype, device, "/mnt/fs")
    fs = kernel.mount_at("/mnt/fs").fs
    if inode_cache_capacity is not None and name == "xfs":
        fs.INODE_CACHE_CAPACITY = inode_cache_capacity
    return kernel, fs


def make_file(kernel, path, data=b""):
    fd = kernel.open(path, O_CREAT | O_WRONLY)
    if data:
        kernel.write(fd, data)
    kernel.close(fd)
    return kernel.stat(path).st_ino


@pytest.mark.parametrize("name", sorted(FORMATS))
class TestXattrBlock:
    def test_first_xattr_counts_in_st_blocks_on_ext_only(self, clock, name):
        kernel, _ = mount(clock, name)
        make_file(kernel, "/mnt/fs/f", b"x")
        before = kernel.stat("/mnt/fs/f").st_blocks
        kernel.setxattr("/mnt/fs/f", "user.k", b"v")
        after = kernel.stat("/mnt/fs/f").st_blocks
        if name == "xfs":
            assert (before, after) == (8, 8)
        else:
            assert (before, after) == (2, 4)

    def test_oversized_xattr_set_is_erange_and_changes_nothing(self, clock, name):
        kernel, fs = mount(clock, name)
        make_file(kernel, "/mnt/fs/f", b"x")
        kernel.setxattr("/mnt/fs/f", "user.a", b"small")
        blocks = kernel.stat("/mnt/fs/f").st_blocks
        with pytest.raises(FsError) as excinfo:
            kernel.setxattr("/mnt/fs/f", "user.big", b"v" * fs.geo.block_size)
        assert excinfo.value.code == ERANGE
        assert kernel.listxattr("/mnt/fs/f") == ["user.a"]
        assert kernel.getxattr("/mnt/fs/f", "user.a") == b"small"
        assert kernel.stat("/mnt/fs/f").st_blocks == blocks


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_write_reserve_keeps_a_block_back_on_ext_only(clock, name):
    kernel, fs = mount(clock, name)
    ino = make_file(kernel, "/mnt/fs/f")
    bitmap = fs.block_bitmap
    while bitmap.free_count > 4:
        bitmap.set(bitmap.find_free(start=fs.geo.first_data_block))
    data = b"d" * (4 * fs.geo.block_size)
    if name == "xfs":
        assert fs.write(ino, 0, data) == len(data)
        assert fs.read(ino, 0, len(data)) == data
    else:
        with pytest.raises(FsError) as excinfo:
            fs.write(ino, 0, data)
        assert excinfo.value.code == ENOSPC
        assert bitmap.free_count == 4


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_directory_rename_across_directories_with_two_cached_inodes(clock, name):
    kernel, fs = mount(clock, name, inode_cache_capacity=2)
    for path in ("/a", "/a/m", "/a/m/n", "/a/b", "/a/b/c", "/a/b/c/d",
                 "/a/b/c/d/m"):
        kernel.mkdir("/mnt/fs" + path)
    make_file(kernel, "/mnt/fs/a/m/n/file", b"payload")
    kernel.rename("/mnt/fs/a/m", "/mnt/fs/a/b/c/d/m")
    fs.sync()
    assert fs.check_consistency() == []
    names = [dirent.name for dirent in kernel.getdents("/mnt/fs/a/b/c/d/m/n")]
    assert names == ["file"]
    assert [dirent.name for dirent in kernel.getdents("/mnt/fs/a")] == ["b"]
    assert kernel.stat("/mnt/fs/a").st_nlink == 3
    assert kernel.stat("/mnt/fs/a/b/c/d").st_nlink == 3
