"""SimJFFS2-specific behaviour: log structure, GC, MTD requirement."""

import pytest

from repro.clock import SimClock
from repro.core.futs import make_block_fut
from repro.errors import EINVAL, ENOSPC, FsError
from repro.fs.jffs2 import Jffs2FileSystemType, MountedJffs2
from repro.kernel import Kernel
from repro.kernel.fdtable import O_CREAT, O_RDWR, O_WRONLY
from repro.storage import RAMBlockDevice
from repro.storage.mtd import MTDDevice
from repro.workload.generator import SequenceGenerator


@pytest.fixture
def fx(clock):
    kernel = Kernel(clock)
    fstype = Jffs2FileSystemType()
    device = MTDDevice(256 * 1024, erase_block_size=16 * 1024, clock=clock, name="mtd0")
    fstype.mkfs(device)
    kernel.mount(fstype, device, "/mnt/jffs2")
    return kernel, device, fstype


class TestMTDRequirement:
    def test_block_device_rejected_for_mkfs(self, clock):
        fstype = Jffs2FileSystemType()
        with pytest.raises(FsError) as excinfo:
            fstype.mkfs(RAMBlockDevice(256 * 1024, clock=clock))
        assert excinfo.value.code == EINVAL

    def test_block_device_rejected_for_mount(self, clock):
        fstype = Jffs2FileSystemType()
        with pytest.raises(FsError):
            fstype.mount(RAMBlockDevice(256 * 1024, clock=clock))


class TestObservableQuirks:
    def test_dir_size_is_zero(self, fx):
        kernel, _, _ = fx
        kernel.mkdir("/mnt/jffs2/d")
        for i in range(5):
            kernel.close(kernel.open(f"/mnt/jffs2/d/f{i}", O_CREAT))
        assert kernel.stat("/mnt/jffs2/d").st_size == 0

    def test_no_special_folders(self, fx):
        kernel, _, _ = fx
        assert kernel.getdents("/mnt/jffs2") == []


class TestLogStructure:
    def test_every_write_appends_nodes(self, fx):
        kernel, device, _ = fx
        writes_before = device.stats.write_requests
        fd = kernel.open("/mnt/jffs2/f", O_CREAT | O_WRONLY)
        kernel.write(fd, b"payload")
        kernel.close(fd)
        assert device.stats.write_requests > writes_before

    def test_state_rebuilt_by_mount_scan(self, fx):
        kernel, device, fstype = fx
        kernel.mkdir("/mnt/jffs2/d")
        fd = kernel.open("/mnt/jffs2/d/f", O_CREAT | O_RDWR)
        kernel.write(fd, b"journaled")
        kernel.close(fd)
        kernel.umount("/mnt/jffs2")
        # a completely fresh driver instance must rebuild from the log
        fresh = fstype.mount(device)
        ino_d = fresh.lookup(fresh.ROOT_INO, "d")
        ino_f = fresh.lookup(ino_d, "f")
        assert fresh.read(ino_f, 0, 100) == b"journaled"

    def test_latest_version_wins(self, fx):
        kernel, device, fstype = fx
        fd = kernel.open("/mnt/jffs2/f", O_CREAT | O_WRONLY)
        kernel.write(fd, b"first")
        kernel.pwrite(fd, b"final", 0)
        kernel.close(fd)
        kernel.remount("/mnt/jffs2")
        fd = kernel.open("/mnt/jffs2/f")
        assert kernel.read(fd, 10) == b"final"
        kernel.close(fd)

    def test_whiteout_survives_remount(self, fx):
        kernel, _, _ = fx
        kernel.close(kernel.open("/mnt/jffs2/f", O_CREAT))
        kernel.unlink("/mnt/jffs2/f")
        kernel.remount("/mnt/jffs2")
        with pytest.raises(FsError):
            kernel.stat("/mnt/jffs2/f")

    def test_mount_scan_charges_io_time(self, clock):
        kernel = Kernel(clock)
        fstype = Jffs2FileSystemType()
        device = MTDDevice(256 * 1024, clock=clock)
        fstype.mkfs(device)
        kernel.mount(fstype, device, "/mnt/jffs2")
        for i in range(20):
            fd = kernel.open(f"/mnt/jffs2/f{i}", O_CREAT | O_WRONLY)
            kernel.write(fd, b"x" * 500)
            kernel.close(fd)
        before = clock.now
        kernel.remount("/mnt/jffs2")
        assert clock.now - before > 0  # full-log scan costs time

    def test_remount_resumes_at_the_live_write_cursor(self, clock):
        # 160 operations wrap this 8-block log: the live write cursor is
        # no longer in the highest-numbered block holding nodes
        device = MTDDevice(128 * 1024, erase_block_size=16 * 1024, clock=clock)
        fut = make_block_fut("jffs2", Jffs2FileSystemType(), device, clock)
        generator = SequenceGenerator(seed=5001)
        generator.apply_to(fut, generator.take(160))
        live = fut.kernel.mount_at(fut.mountpoint).fs
        addresses = []
        read = device.read
        device.read = lambda address, length: addresses.append(address) or read(address, length)
        remounted = MountedJffs2(device)
        assert (remounted._write_block, remounted._write_offset) == (
            live._write_block, live._write_offset)
        # one pass over the log: no erase block is read twice
        assert addresses == sorted(set(addresses))


class TestGarbageCollection:
    def test_gc_reclaims_dead_space(self, fx):
        kernel, device, _ = fx
        # churn one file so old node versions accumulate as dead bytes
        fd = kernel.open("/mnt/jffs2/f", O_CREAT | O_WRONLY)
        for round_number in range(120):
            kernel.pwrite(fd, bytes([round_number & 0xFF]) * 2048, 0)
        kernel.close(fd)
        assert device.stats.erases > 0  # GC ran
        fd = kernel.open("/mnt/jffs2/f")
        assert kernel.read(fd, 10) == bytes([119]) * 10
        kernel.close(fd)

    def test_gc_preserves_all_live_files(self, fx):
        kernel, _, _ = fx
        for i in range(8):
            fd = kernel.open(f"/mnt/jffs2/keep{i}", O_CREAT | O_WRONLY)
            kernel.write(fd, bytes([i]) * 1000)
            kernel.close(fd)
        fd = kernel.open("/mnt/jffs2/churn", O_CREAT | O_WRONLY)
        for round_number in range(100):
            kernel.pwrite(fd, b"c" * 2048, 0)
        kernel.close(fd)
        for i in range(8):
            fd = kernel.open(f"/mnt/jffs2/keep{i}")
            assert kernel.read(fd, 2000) == bytes([i]) * 1000
            kernel.close(fd)
        assert kernel.mount_at("/mnt/jffs2").fs.check_consistency() == []

    def test_truly_full_reports_enospc(self, clock):
        kernel = Kernel(clock)
        fstype = Jffs2FileSystemType()
        device = MTDDevice(64 * 1024, erase_block_size=16 * 1024, clock=clock)
        fstype.mkfs(device)
        kernel.mount(fstype, device, "/mnt/jffs2")
        with pytest.raises(FsError) as excinfo:
            for i in range(100):
                fd = kernel.open(f"/mnt/jffs2/f{i}", O_CREAT | O_WRONLY)
                kernel.write(fd, b"z" * 4096)
                kernel.close(fd)
        assert excinfo.value.code == ENOSPC

    def test_wear_spreads_over_erase_blocks(self, fx):
        kernel, device, _ = fx
        fd = kernel.open("/mnt/jffs2/churn", O_CREAT | O_WRONLY)
        for round_number in range(200):
            kernel.pwrite(fd, b"w" * 2048, 0)
        kernel.close(fd)
        worn_blocks = sum(1 for wear in device.wear if wear > 0)
        assert worn_blocks >= 2
