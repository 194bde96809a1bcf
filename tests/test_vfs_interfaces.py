"""Tests for the VFS base interfaces, stat structures, and NFS layer."""

import pytest

from repro.clock import SimClock
from repro.errors import ENOSYS, ENOTSUP, ENOTTY, FsError
from repro.kernel import Kernel
from repro.kernel.fdtable import O_CREAT, O_RDWR
from repro.kernel.stat import (
    DT_DIR,
    DT_LNK,
    DT_REG,
    DT_UNKNOWN,
    S_IFDIR,
    S_IFLNK,
    S_IFREG,
    StatResult,
    StatVFS,
    file_type_name,
    mode_to_dtype,
)
from repro.kernel.vfs import MountedFileSystem
from repro.nfs import GaneshaLikeServer, NfsConnection, mount_nfs
from repro.verifs import VeriFS2


class TestStatHelpers:
    def test_mode_to_dtype(self):
        assert mode_to_dtype(S_IFDIR | 0o755) == DT_DIR
        assert mode_to_dtype(S_IFREG | 0o644) == DT_REG
        assert mode_to_dtype(S_IFLNK | 0o777) == DT_LNK
        assert mode_to_dtype(0) == DT_UNKNOWN

    def test_file_type_name(self):
        assert file_type_name(S_IFDIR | 0o755) == "dir"
        assert file_type_name(S_IFREG) == "file"
        assert file_type_name(S_IFLNK) == "symlink"
        assert "type?" in file_type_name(0o010000)

    def test_stat_result_predicates(self):
        stat = StatResult(st_ino=1, st_mode=S_IFDIR | 0o755, st_nlink=2,
                          st_uid=0, st_gid=0, st_size=0, st_blocks=0,
                          st_atime=0, st_mtime=0, st_ctime=0)
        assert stat.is_dir and not stat.is_file and not stat.is_symlink

    def test_stat_result_with_updates(self):
        stat = StatResult(st_ino=1, st_mode=S_IFREG, st_nlink=1, st_uid=0,
                          st_gid=0, st_size=10, st_blocks=1, st_atime=0,
                          st_mtime=0, st_ctime=0)
        bigger = stat.with_updates(st_size=20)
        assert bigger.st_size == 20
        assert stat.st_size == 10  # frozen: original untouched

    def test_statvfs_byte_helpers(self):
        usage = StatVFS(block_size=1024, blocks_total=100, blocks_free=25,
                        files_total=10, files_free=5)
        assert usage.bytes_total == 102_400
        assert usage.bytes_free == 25_600


class _MinimalFS(MountedFileSystem):
    """Implements only the abstract minimum; optionals stay defaulted."""

    def sync(self): ...
    def unmount(self): ...
    def lookup(self, dir_ino, name): raise FsError(2, name)
    def getattr(self, ino): raise FsError(2, str(ino))
    def getdents(self, dir_ino): return []
    def create(self, dir_ino, name, mode, uid, gid): return 2
    def mkdir(self, dir_ino, name, mode, uid, gid): return 2
    def unlink(self, dir_ino, name): ...
    def rmdir(self, dir_ino, name): ...
    def read(self, ino, offset, length): return b""
    def write(self, ino, offset, data): return len(data)
    def truncate(self, ino, size): ...
    def statfs(self): return StatVFS(1, 1, 1, 1, 1)


class TestOptionalOperationDefaults:
    """Drivers that skip optional ops must fail with the right errno."""

    def test_rename_enotsup(self):
        with pytest.raises(FsError) as excinfo:
            _MinimalFS().rename(1, "a", 1, "b")
        assert excinfo.value.code == ENOTSUP

    def test_links_enotsup(self):
        fs = _MinimalFS()
        for call in (lambda: fs.link(1, 1, "x"),
                     lambda: fs.symlink(1, "x", "t", 0, 0),
                     lambda: fs.readlink(1)):
            with pytest.raises(FsError) as excinfo:
                call()
            assert excinfo.value.code == ENOTSUP

    def test_xattrs_enotsup(self):
        fs = _MinimalFS()
        for call in (lambda: fs.setxattr(1, "k", b"v"),
                     lambda: fs.getxattr(1, "k"),
                     lambda: fs.listxattr(1),
                     lambda: fs.removexattr(1, "k")):
            with pytest.raises(FsError) as excinfo:
                call()
            assert excinfo.value.code == ENOTSUP

    def test_ioctl_enotty(self):
        with pytest.raises(FsError) as excinfo:
            _MinimalFS().ioctl(1, 0x1234)
        assert excinfo.value.code == ENOTTY

    def test_check_consistency_default_clean(self):
        assert _MinimalFS().check_consistency() == []


class TestNfsGanesha:
    def test_connection_is_not_a_device(self, clock):
        connection = NfsConnection(clock)
        assert not connection.is_character_device
        assert not connection.device_path.startswith("/dev/")

    def test_full_posix_surface_over_nfs(self, clock):
        kernel = Kernel(clock)
        mount_nfs(kernel, VeriFS2(clock=clock), "/mnt/nfs")
        kernel.mkdir("/mnt/nfs/d")
        fd = kernel.open("/mnt/nfs/d/f", O_CREAT | O_RDWR)
        kernel.write(fd, b"over the wire")
        kernel.lseek(fd, 0)
        assert kernel.read(fd, 100) == b"over the wire"
        kernel.close(fd)
        kernel.rename("/mnt/nfs/d/f", "/mnt/nfs/g")
        assert kernel.stat("/mnt/nfs/g").st_size == 13

    def test_nfs_costs_more_than_fuse_per_request(self, clock):
        from repro.clock import Cost
        kernel = Kernel(clock)
        server, connection, _mount = mount_nfs(kernel, VeriFS2(clock=clock),
                                               "/mnt/nfs")
        before = clock.by_category.get("nfs-transport", 0.0)
        kernel.mkdir("/mnt/nfs/d")
        assert clock.by_category["nfs-transport"] > before
        fd = kernel.open("/mnt/nfs/d/f", O_CREAT | O_RDWR)
        kernel.write(fd, b"payload")
        kernel.close(fd)
        kernel.getdents_attrs("/mnt/nfs/d")
        # the network charge rides on top of the FUSE one, once per message
        assert connection.requests_sent == server.requests_handled
        assert clock.by_category["nfs-transport"] == pytest.approx(
            connection.requests_sent * Cost.FUSE_ROUNDTRIP)
        assert clock.by_category["fuse-transport"] == pytest.approx(
            clock.by_category["nfs-transport"])

    def test_server_holds_no_device_handles(self, clock):
        kernel = Kernel(clock)
        server, _conn, _mount = mount_nfs(kernel, VeriFS2(clock=clock), "/mnt/nfs")
        assert isinstance(server, GaneshaLikeServer)
        assert all(not dev.startswith("/dev/") for dev in server.open_devices)
