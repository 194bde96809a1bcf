"""Tests for the MTD device (mtdram) and block adapter (mtdblock)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.errors import DeviceError
from repro.storage.mtd import MTDBlockAdapter, MTDDevice


@pytest.fixture
def mtd():
    return MTDDevice(64 * 1024, erase_block_size=16 * 1024, clock=SimClock())


class TestFlashSemantics:
    def test_starts_erased(self, mtd):
        assert mtd.read(0, 4) == b"\xff\xff\xff\xff"
        assert mtd.is_block_erased(0)

    def test_program_clears_bits(self, mtd):
        mtd.write(0, b"\x0f")
        assert mtd.read(0, 1) == b"\x0f"

    def test_reprogram_setting_bits_rejected(self, mtd):
        mtd.write(0, b"\x0f")
        with pytest.raises(DeviceError):
            mtd.write(0, b"\xf0")  # would set cleared bits

    def test_bit_compatible_reprogram_allowed(self, mtd):
        mtd.write(0, b"\x0f")
        mtd.write(0, b"\x0e")  # only clears more bits
        assert mtd.read(0, 1) == b"\x0e"

    def test_erase_resets_block(self, mtd):
        mtd.write(0, b"\x00" * 16)
        mtd.erase_block(0)
        assert mtd.is_block_erased(0)

    def test_erase_tracks_wear(self, mtd):
        mtd.erase_block(1)
        mtd.erase_block(1)
        assert mtd.wear[1] == 2
        assert mtd.wear[0] == 0

    def test_erase_out_of_range(self, mtd):
        with pytest.raises(DeviceError):
            mtd.erase_block(4)

    def test_size_must_be_erase_block_multiple(self):
        with pytest.raises(ValueError):
            MTDDevice(10_000, erase_block_size=16 * 1024)

    def test_erase_charges_more_than_write(self):
        clock = SimClock()
        device = MTDDevice(32 * 1024, erase_block_size=16 * 1024, clock=clock)
        device.write(0, b"\x00" * 64)
        write_time = clock.now
        device.erase_block(0)
        assert clock.now - write_time > write_time


def loop_program(name, offset, current, data):
    """The per-byte programming loop ``MTDDevice.write`` used to run,
    kept as the reference for the whole-buffer version."""
    for i, byte in enumerate(data):
        if current[i] & byte != byte:
            raise DeviceError(
                f"{name}: programming 0x{byte:02x} over "
                f"0x{current[i]:02x} at offset {offset + i} would set "
                f"bits; erase first"
            )
    return bytes(c & b for c, b in zip(current, data))


class TestProgrammingMatchesTheLoop:
    @settings(max_examples=200, deadline=None)
    @given(base=st.binary(min_size=256, max_size=256),
           offset=st.integers(0, 255),
           data=st.binary(max_size=96),
           compatible=st.booleans())
    def test_same_result_or_same_error(self, base, offset, data, compatible):
        mtd = MTDDevice(256, erase_block_size=64, clock=SimClock())
        mtd.write(0, base)  # anything programs over fresh 0xFF flash
        data = data[: 256 - offset]
        current = mtd.read(offset, len(data))
        if compatible:  # only clears bits: must succeed
            data = bytes(c & b for c, b in zip(current, data))
        try:
            expected = loop_program(mtd.name, offset, current, data)
        except DeviceError as error:
            with pytest.raises(DeviceError) as raised:
                mtd.write(offset, data)
            assert str(raised.value) == str(error)
            assert mtd.read(offset, len(data)) == current
            return
        before = mtd.stats.write_requests
        mtd.write(offset, data)
        assert mtd.read(offset, len(data)) == expected
        assert mtd.stats.write_requests == before + 1

    def test_error_names_the_first_offending_byte(self, mtd):
        mtd.write(8, b"\x0f\xff\x00\x0f")
        with pytest.raises(DeviceError) as raised:
            mtd.write(8, b"\x0f\xff\x01\xff")  # bytes 2 and 3 set bits
        assert str(raised.value).endswith(
            f"{mtd.name}: programming 0x01 over 0x00 at offset 10 would "
            f"set bits; erase first")


class TestSnapshotRestore:
    def test_roundtrip(self, mtd):
        mtd.write(100, b"\x12\x34")
        image = mtd.snapshot_image()
        mtd.erase_block(0)
        mtd.restore_image(image)
        assert mtd.read(100, 2) == b"\x12\x34"

    def test_wrong_size_rejected(self, mtd):
        with pytest.raises(DeviceError):
            mtd.restore_image(b"x")


class TestBlockAdapter:
    def test_read_passthrough(self, mtd):
        adapter = MTDBlockAdapter(mtd)
        mtd.write(0, b"\xaa\xbb")
        assert adapter.read(0, 2) == b"\xaa\xbb"

    def test_write_does_read_modify_erase_write(self, mtd):
        adapter = MTDBlockAdapter(mtd)
        mtd.write(0, b"\x11" * 8)
        adapter.write(4, b"\x22" * 2)  # overwrite middle; needs erase cycle
        assert mtd.read(0, 8) == b"\x11" * 4 + b"\x22" * 2 + b"\x11" * 2
        assert mtd.stats.erases >= 1

    def test_write_spanning_erase_blocks(self, mtd):
        adapter = MTDBlockAdapter(mtd)
        boundary = mtd.erase_block_size
        adapter.write(boundary - 2, b"\x01\x02\x03\x04")
        assert mtd.read(boundary - 2, 4) == b"\x01\x02\x03\x04"

    def test_snapshot_goes_through_to_mtd(self, mtd):
        adapter = MTDBlockAdapter(mtd)
        mtd.write(0, b"\x42")
        image = adapter.snapshot_image()
        mtd.erase_block(0)
        adapter.restore_image(image)
        assert mtd.read(0, 1) == b"\x42"

    def test_empty_write_is_noop(self, mtd):
        adapter = MTDBlockAdapter(mtd)
        adapter.write(0, b"")
        assert mtd.stats.erases == 0
