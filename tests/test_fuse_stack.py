"""Tests for the simulated FUSE stack: protocol, caching, invalidation."""

import pytest

from repro.clock import Cost, SimClock
from repro.errors import EEXIST, EIO, ENOENT, ENOSYS, FsError
from repro.fuse import FuseConnection, FuseOp, FuseServerProcess
from repro.fuse.kernel_driver import FuseKernelFileSystemType
from repro.kernel import Kernel
from repro.kernel.fdtable import O_CREAT, O_RDWR
from repro.verifs import VeriFS1, VeriFS2
from repro.verifs.mounting import mount_verifs


@pytest.fixture
def stack(clock):
    kernel = Kernel(clock)
    mounted = mount_verifs(kernel, VeriFS2(clock=clock), "/mnt/fuse")
    return kernel, mounted


def record_requests(server):
    """Log every request ``server`` handles."""
    log, handle = [], server.handle

    def recording(request):
        log.append(request)
        return handle(request)

    server.handle = recording
    return log


class TestTransport:
    def test_requests_counted(self, stack):
        kernel, mounted = stack
        before = mounted.connection.requests_sent
        kernel.mkdir("/mnt/fuse/d")
        assert mounted.connection.requests_sent > before

    def test_roundtrips_charge_time(self, clock):
        kernel = Kernel(clock)
        mounted = mount_verifs(kernel, VeriFS2(clock=clock), "/mnt/fuse")
        kernel.mkdir("/mnt/fuse/d")
        assert clock.by_category.get("fuse-transport", 0) >= Cost.FUSE_ROUNDTRIP

    def test_connection_without_server_fails_eio(self, clock):
        connection = FuseConnection(clock)
        with pytest.raises(FsError) as excinfo:
            connection.send_dict(FuseOp.GETATTR, (1,))
        assert excinfo.value.code == EIO

    def test_unique_ids_increase(self, stack):
        kernel, mounted = stack
        log = record_requests(mounted.server)
        kernel.mkdir("/mnt/fuse/a")
        kernel.stat("/mnt/fuse/a")
        kernel.rmdir("/mnt/fuse/a")
        uniques = [request.unique for request in log]
        assert len(uniques) >= 3
        # one id per message, in send order
        assert uniques == list(range(uniques[0], uniques[0] + len(uniques)))

    def test_connection_is_character_device(self, stack):
        _, mounted = stack
        assert mounted.connection.device_path == "/dev/fuse"
        assert mounted.connection.is_character_device
        assert "/dev/fuse" in mounted.server.open_devices


class VeriFS2WithoutReaddirplus(VeriFS2):
    """A server that never implemented the READDIRPLUS callback."""

    readdirplus = None


class TestPositionalTransport:
    def test_requests_carry_the_callback_arguments_in_order(self, stack):
        kernel, mounted = stack
        kernel.mkdir("/mnt/fuse/d")
        log = record_requests(mounted.server)
        kernel.rename("/mnt/fuse/d", "/mnt/fuse/e")
        root = mounted.filesystem.ROOT_INO
        assert [request.args for request in log
                if request.op is FuseOp.RENAME] == [(root, "d", root, "e")]

    def test_absent_readdirplus_is_learned_once(self, clock):
        kernel = Kernel(clock)
        mounted = mount_verifs(kernel, VeriFS2WithoutReaddirplus(clock=clock),
                               "/mnt/fuse")
        kernel.mkdir("/mnt/fuse/d")
        log = record_requests(mounted.server)
        first = kernel.getdents_attrs("/mnt/fuse")
        ops = [request.op for request in log]
        assert ops.count(FuseOp.READDIRPLUS) == 1  # answered ENOSYS
        assert FuseOp.READDIR in ops  # the fallback composition
        del log[:]
        assert kernel.getdents_attrs("/mnt/fuse") == first
        assert FuseOp.READDIRPLUS not in [request.op for request in log]

    def test_absent_xattr_callback_sends_no_second_message(self, clock):
        kernel = Kernel(clock)
        mounted = mount_verifs(kernel, VeriFS1(clock=clock), "/mnt/v1")
        kernel.close(kernel.open("/mnt/v1/a", O_CREAT))
        log = record_requests(mounted.server)
        for _ in range(2):
            with pytest.raises(FsError) as excinfo:
                kernel.listxattr("/mnt/v1/a")
            assert excinfo.value.code == ENOSYS
        # the first call learned the absence; the second stayed in the kernel
        assert [request.op for request in log].count(FuseOp.LISTXATTR) == 1


class TestDispatch:
    def test_missing_method_is_enosys(self, clock):
        kernel = Kernel(clock)
        mounted = mount_verifs(kernel, VeriFS1(clock=clock), "/mnt/v1")
        kernel.close(kernel.open("/mnt/v1/a", O_CREAT))
        with pytest.raises(FsError) as excinfo:
            kernel.rename("/mnt/v1/a", "/mnt/v1/b")  # VeriFS1 has no rename
        assert excinfo.value.code == ENOSYS

    def test_fs_errors_cross_the_boundary(self, stack):
        kernel, _ = stack
        with pytest.raises(FsError) as excinfo:
            kernel.stat("/mnt/fuse/missing")
        assert excinfo.value.code == ENOENT

    def test_requests_handled_counter(self, stack):
        kernel, mounted = stack
        before = mounted.server.requests_handled
        kernel.mkdir("/mnt/fuse/d")
        assert mounted.server.requests_handled > before


class TestKernelSideCaching:
    def test_lookup_cached_after_first_walk(self, stack):
        kernel, mounted = stack
        kernel.mkdir("/mnt/fuse/d")
        kernel.invalidate_mount_caches(mounted.mount.mount_id)
        start = mounted.connection.requests_sent
        kernel.stat("/mnt/fuse/d")
        first_stat = mounted.connection.requests_sent - start
        kernel.stat("/mnt/fuse/d")
        second_stat = mounted.connection.requests_sent - start - first_stat
        # the second stat skips the LOOKUP (dentry cached), only GETATTRs go
        assert second_stat < first_stat

    def test_notify_inval_entry(self, stack):
        kernel, mounted = stack
        kernel.mkdir("/mnt/fuse/d")
        kernel.stat("/mnt/fuse/d")
        mount_id = mounted.mount.mount_id
        root_ino = mounted.filesystem.ROOT_INO
        count_before = kernel.dcache.entry_count(mount_id)
        mounted.connection.notify_inval_entry(root_ino, "d")
        assert kernel.dcache.entry_count(mount_id) == count_before - 1
        assert mounted.connection.notifications_sent == 1

    def test_notify_inval_all(self, stack):
        kernel, mounted = stack
        kernel.mkdir("/mnt/fuse/a")
        kernel.mkdir("/mnt/fuse/b")
        mounted.connection.notify_inval_all()
        assert kernel.dcache.entry_count(mounted.mount.mount_id) == 0

    def test_stale_positive_dentry_masks_reality(self, stack):
        """The raw mechanism behind the ghost-EEXIST bug."""
        kernel, mounted = stack
        kernel.mkdir("/mnt/fuse/ghost")
        # the fs forgets the directory behind the kernel's back
        del mounted.filesystem.inodes[mounted.filesystem.ROOT_INO].entries["ghost"]
        with pytest.raises(FsError) as excinfo:
            kernel.mkdir("/mnt/fuse/ghost")  # stale dentry answers
        assert excinfo.value.code == EEXIST


class TestProcessImage:
    def test_memory_image_roundtrip(self, stack):
        kernel, mounted = stack
        kernel.mkdir("/mnt/fuse/keep")
        image = mounted.server.memory_image()
        kernel.mkdir("/mnt/fuse/extra")
        mounted.server.restore_memory_image(image)
        mounted.connection.notify_inval_all()
        assert kernel.stat("/mnt/fuse/keep").is_dir
        with pytest.raises(FsError):
            kernel.stat("/mnt/fuse/extra")

    def test_image_is_deep_copy(self, stack):
        kernel, mounted = stack
        image = mounted.server.memory_image()
        kernel.mkdir("/mnt/fuse/later")
        assert "later" not in image["filesystem"]["inodes"][1].entries

    def test_restore_keeps_live_connection(self, stack):
        kernel, mounted = stack
        image = mounted.server.memory_image()
        mounted.server.restore_memory_image(image)
        assert mounted.filesystem.connection is mounted.connection


class TestUnmount:
    def test_unmount_sends_destroy_and_detaches(self, stack):
        kernel, mounted = stack
        kernel.umount("/mnt/fuse")
        assert mounted.connection.kernel is None

    def test_fs_state_survives_kernel_unmount(self, clock):
        """The daemon keeps running across mounts, like a real FUSE server."""
        kernel = Kernel(clock)
        fs = VeriFS2(clock=clock)
        mounted = mount_verifs(kernel, fs, "/mnt/fuse")
        kernel.mkdir("/mnt/fuse/survives")
        kernel.umount("/mnt/fuse")
        mount = kernel.mount(mounted.fstype, None, "/mnt/fuse")
        # mounting hooks the notify channel up to the new mount id
        assert mounted.connection.kernel is kernel
        assert mounted.connection.mount_id == mount.mount_id
        assert kernel.stat("/mnt/fuse/survives").is_dir
