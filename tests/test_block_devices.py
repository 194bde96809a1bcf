"""Tests for RAM/HDD/SSD block devices."""

import pytest
from hypothesis import given, strategies as st

from repro.clock import SimClock
from repro.errors import DeviceError
from repro.storage import (
    HDDBlockDevice,
    RAMBlockDevice,
    SSDBlockDevice,
)


@pytest.fixture
def device():
    return RAMBlockDevice(64 * 1024, clock=SimClock(), name="ram0")


class TestBasicIO:
    def test_starts_zeroed(self, device):
        assert device.read(0, 16) == b"\x00" * 16

    def test_write_read_roundtrip(self, device):
        device.write(100, b"hello")
        assert device.read(100, 5) == b"hello"

    def test_read_past_end_rejected(self, device):
        with pytest.raises(DeviceError):
            device.read(device.size_bytes - 2, 4)

    def test_negative_offset_rejected(self, device):
        with pytest.raises(DeviceError):
            device.read(-1, 4)

    def test_write_past_end_rejected(self, device):
        with pytest.raises(DeviceError):
            device.write(device.size_bytes - 1, b"ab")

    def test_read_only_device_rejects_writes(self, device):
        device.read_only = True
        with pytest.raises(DeviceError):
            device.write(0, b"x")

    def test_size_must_be_sector_multiple(self):
        with pytest.raises(ValueError):
            RAMBlockDevice(1000, sector_size=512)


class TestBlockHelpers:
    def test_write_block_pads(self, device):
        device.write_block(2, 1024, b"abc")
        data = device.read_block(2, 1024)
        assert data[:3] == b"abc"
        assert data[3:] == b"\x00" * 1021

    def test_write_block_oversized_rejected(self, device):
        with pytest.raises(DeviceError):
            device.write_block(0, 512, b"x" * 513)


class TestStatsAndTiming:
    def test_stats_count_requests_and_bytes(self, device):
        device.write(0, b"abcd")
        device.read(0, 4)
        assert device.stats.write_requests == 1
        assert device.stats.read_requests == 1
        assert device.stats.bytes_written == 4
        assert device.stats.bytes_read == 4

    def test_io_charges_clock(self):
        clock = SimClock()
        device = RAMBlockDevice(64 * 1024, clock=clock)
        before = clock.now
        device.read(0, 4096)
        assert clock.now > before

    def test_hdd_slower_than_ssd_slower_than_ram(self):
        times = {}
        for cls in (RAMBlockDevice, SSDBlockDevice, HDDBlockDevice):
            clock = SimClock()
            dev = cls(64 * 1024, clock=clock)
            for i in range(16):
                dev.write(i * 1024, b"x" * 1024)
            times[cls.__name__] = clock.now
        assert times["RAMBlockDevice"] < times["SSDBlockDevice"] < times["HDDBlockDevice"]


class TestSnapshotRestore:
    def test_roundtrip(self, device):
        device.write(10, b"payload")
        image = device.snapshot_image()
        device.write(10, b"clobber")
        device.restore_image(image)
        assert device.read(10, 7) == b"payload"

    def test_wrong_size_image_rejected(self, device):
        with pytest.raises(DeviceError):
            device.restore_image(b"short")

    def test_snapshot_is_independent_copy(self, device):
        image = device.snapshot_image()
        device.write(0, b"changed")
        assert image[:7] == b"\x00" * 7


@given(st.data())
def test_property_write_read_consistency(data):
    device = RAMBlockDevice(8192, clock=SimClock())
    shadow = bytearray(8192)
    for _ in range(data.draw(st.integers(0, 12))):
        offset = data.draw(st.integers(0, 8000))
        payload = data.draw(st.binary(min_size=1, max_size=min(191, 8192 - offset)))
        device.write(offset, payload)
        shadow[offset : offset + len(payload)] = payload
    assert device.read(0, 8192) == bytes(shadow)
