"""Tests for the power-cut device and the crash-consistency harness."""

import pytest

from repro.clock import SimClock
from repro.fs import Ext2FileSystemType, Ext4FileSystemType, Jffs2FileSystemType
from repro.kernel import Kernel
from repro.kernel.fdtable import O_CREAT, O_WRONLY
from repro.mc.crash import CrashHarness
from repro.storage import RAMBlockDevice
from repro.storage.fault import PowerCutDevice
from repro.storage.mtd import MTDDevice


class TestPowerCutDevice:
    def test_passthrough_while_powered(self, clock):
        device = PowerCutDevice(RAMBlockDevice(64 * 1024, clock=clock))
        device.write(0, b"alive")
        assert device.read(0, 5) == b"alive"
        assert device.writes_seen == 1
        assert device.writes_dropped == 0

    def test_cut_drops_writes_silently(self, clock):
        device = PowerCutDevice(RAMBlockDevice(64 * 1024, clock=clock))
        device.write(0, b"kept")
        device.cut()
        device.write(0, b"lost")
        assert device.read(0, 4) == b"kept"
        assert device.writes_dropped == 1

    def test_cut_after_n_writes(self, clock):
        device = PowerCutDevice(RAMBlockDevice(64 * 1024, clock=clock),
                                cut_after_writes=2)
        device.write(0, b"one")
        device.write(10, b"two")
        device.write(20, b"three")  # dropped
        assert device.read(0, 3) == b"one"
        assert device.read(10, 3) == b"two"
        assert device.read(20, 5) == b"\x00" * 5

    def test_block_writes_counted_too(self, clock):
        device = PowerCutDevice(RAMBlockDevice(64 * 1024, clock=clock),
                                cut_after_writes=1)
        device.write_block(0, 1024, b"a")
        device.write_block(1, 1024, b"b")  # dropped
        assert device.read_block(1, 1024) == b"\x00" * 1024

    def test_reads_survive_the_cut(self, clock):
        device = PowerCutDevice(RAMBlockDevice(64 * 1024, clock=clock))
        device.write(0, b"evidence")
        device.cut()
        assert device.read(0, 8) == b"evidence"

    def test_restore_power(self, clock):
        device = PowerCutDevice(RAMBlockDevice(64 * 1024, clock=clock))
        device.cut()
        device.write(0, b"lost")
        device.restore_power()
        device.write(0, b"back")
        assert device.read(0, 4) == b"back"

    def test_proxies_geometry(self, clock):
        inner = RAMBlockDevice(64 * 1024, clock=clock, name="inner")
        device = PowerCutDevice(inner)
        assert device.size_bytes == inner.size_bytes
        assert device.sector_size == inner.sector_size
        assert device.name == "inner"

    def test_one_proxy_for_block_and_flash(self, clock):
        """Only the write requests the inner device has are counted, so
        a wrapped block device is still no MTD device and a wrapped MTD
        device still is one: its erases count toward the cut."""
        block = PowerCutDevice(RAMBlockDevice(64 * 1024, clock=clock))
        assert not Jffs2FileSystemType._is_mtd(block)
        assert not hasattr(block, "erase_block")
        flash = PowerCutDevice(MTDDevice(64 * 1024, clock=clock),
                               cut_after_writes=1)
        assert Jffs2FileSystemType._is_mtd(flash)
        assert not hasattr(flash, "write_block")
        flash.erase_block(0)
        flash.write(0, b"\x00")  # dropped: the erase was the one write
        assert (flash.writes_seen, flash.writes_dropped) == (2, 1)
        assert flash.read(0, 1) == b"\xff"
        assert flash.erase_block_size == flash.inner.erase_block_size

    def test_filesystem_mounts_on_wrapped_device(self, clock):
        device = PowerCutDevice(RAMBlockDevice(256 * 1024, clock=clock))
        fstype = Ext2FileSystemType()
        fstype.mkfs(device)
        kernel = Kernel(clock)
        kernel.mount(fstype, device, "/mnt/fs")
        kernel.mkdir("/mnt/fs/d")
        assert kernel.stat("/mnt/fs/d").is_dir


def _workload(kernel, base):
    kernel.mkdir(base + "/d")
    fd = kernel.open(base + "/d/f", O_CREAT | O_WRONLY)
    kernel.write(fd, b"A" * 2000)
    kernel.close(fd)
    kernel.sync()
    fd = kernel.open(base + "/g", O_CREAT | O_WRONLY)
    kernel.write(fd, b"B" * 3000)
    kernel.close(fd)
    kernel.truncate(base + "/d/f", 100)
    kernel.sync()


def _device(clock):
    return RAMBlockDevice(256 * 1024, clock=clock)


class TestCrashHarness:
    def test_count_writes_is_deterministic(self):
        harness = CrashHarness(Ext4FileSystemType, _device, _workload)
        assert harness.count_writes() == harness.count_writes() > 0

    def test_cut_at_zero_recovers_empty_fs(self):
        harness = CrashHarness(Ext4FileSystemType, _device, _workload)
        outcome = harness.crash_at(0, harness.legal_states())
        assert outcome.consistent
        assert outcome.legal_state

    def test_uncut_run_recovers_final_state(self):
        harness = CrashHarness(Ext4FileSystemType, _device, _workload)
        legal = harness.legal_states()
        total = harness.count_writes()
        outcome = harness.crash_at(total + 10, legal)
        assert outcome.consistent
        assert outcome.recovered_state == legal[-1]

    def test_ext4_journal_survives_every_cut_point(self):
        """The journal's crash-consistency theorem, swept exhaustively."""
        harness = CrashHarness(Ext4FileSystemType, _device, _workload)
        result = harness.sweep(step=1)
        assert result.total_writes > 20
        assert result.inconsistent_points == []
        assert result.illegal_points == []

    def test_ext2_tears_at_some_cut_points(self):
        """In-place metadata updates are not atomic: ext2 must fail the
        same sweep somewhere (the reason journals exist)."""
        harness = CrashHarness(Ext2FileSystemType, _device, _workload)
        result = harness.sweep(step=1)
        assert result.inconsistent_points or result.illegal_points

    def test_jffs2_log_structure_is_always_consistent(self):
        """A log-structured fs never tears: every recovered state is
        fsck-clean (it may sit between sync points, since every append
        is immediately durable -- that is not corruption)."""
        harness = CrashHarness(
            Jffs2FileSystemType,
            lambda clock: MTDDevice(256 * 1024, clock=clock), _workload)
        result = harness.sweep(step=1)
        assert result.inconsistent_points == []

    def test_sweep_step_and_limit(self):
        harness = CrashHarness(Ext4FileSystemType, _device, _workload)
        result = harness.sweep(step=5, limit=20)
        assert len(result.outcomes) == 5  # cuts at 0,5,10,15,20
