"""Copy-on-write device snapshots: sharing, accounting, restore.

The storage refactor keeps the public ``read``/``write``/
``snapshot_image``/``restore_image`` surface but stores data as a table
of refcounted immutable chunks.  These tests pin down the contract the
checkpoint hot path depends on: snapshots share untouched chunks, dirty
accounting counts exactly the rewritten bytes, and the new
``bytes_snapshotted``/``bytes_restored`` counters make snapshot traffic
visible (restores used to be invisible to every report).
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import RAMBlockDevice, SimClock
from repro.core.futs import make_block_fut
from repro.errors import DeviceError
from repro.fs.ext2 import Ext2FileSystemType
from repro.storage.device import DiskSnapshot
from repro.storage.fault import PowerCutDevice, PowerCutMTD
from repro.storage.mtd import MTDBlockAdapter, MTDDevice

CHUNK = 4096


def make_device(size=16 * CHUNK):
    return RAMBlockDevice(size, clock=SimClock(), name="dev")


class TestChunkSharing:
    def test_snapshot_shares_untouched_chunks(self):
        device = make_device()
        device.write(0, b"A" * CHUNK)
        first = device.snapshot_chunks()
        device.write(0, b"B" * CHUNK)
        second = device.snapshot_chunks()
        # chunk 0 diverged; every other chunk is the same object
        assert first.chunks[0] is not second.chunks[0]
        for index in range(1, len(first.chunks)):
            assert first.chunks[index] is second.chunks[index]

    def test_identical_rewrite_keeps_chunk_identity(self):
        device = make_device()
        device.write(0, b"A" * CHUNK)
        snapshot = device.snapshot_chunks()
        device.write(0, b"A" * CHUNK)  # same content: no COW copy
        assert device.dirty_bytes_since_snapshot == 0
        assert device.snapshot_chunks().chunks[0] is snapshot.chunks[0]

    def test_materialize_round_trips(self):
        device = make_device()
        device.write(100, b"payload")
        snapshot = device.snapshot_chunks()
        image = snapshot.materialize()
        assert len(image) == device.size_bytes
        assert image[100:107] == b"payload"
        assert image == device.snapshot_image()


class TestDirtyAccounting:
    def test_dirty_bytes_track_rewritten_chunks(self):
        device = make_device()
        assert device.dirty_bytes_since_snapshot == 0
        device.write(0, b"x")  # dirties one whole chunk
        assert device.dirty_bytes_since_snapshot == CHUNK
        device.write(1, b"y")  # same chunk: no growth
        assert device.dirty_bytes_since_snapshot == CHUNK
        device.write(CHUNK, b"z")  # second chunk
        assert device.dirty_bytes_since_snapshot == 2 * CHUNK

    def test_snapshot_clears_dirty_and_counts_copied_bytes(self):
        device = make_device()
        device.write(0, b"x")
        device.snapshot_chunks()
        assert device.stats.bytes_snapshotted == CHUNK
        assert device.dirty_bytes_since_snapshot == 0
        device.snapshot_chunks()  # nothing new: free
        assert device.stats.bytes_snapshotted == CHUNK

    def test_snapshot_image_counts_the_whole_device(self):
        device = make_device()
        device.snapshot_image()
        assert device.stats.bytes_snapshotted == device.size_bytes


class TestRestore:
    def test_restore_snapshot_returns_diverged_bytes(self):
        device = make_device()
        device.write(0, b"A" * CHUNK)
        snapshot = device.snapshot_chunks()
        device.write(0, b"B" * CHUNK)
        device.write(CHUNK, b"C" * CHUNK)
        changed = device.restore_snapshot(snapshot)
        assert changed == 2 * CHUNK
        assert device.stats.bytes_restored == 2 * CHUNK
        assert device.read(0, CHUNK) == b"A" * CHUNK
        assert device.read(CHUNK, 1) == b"\x00"

    def test_writing_back_a_read_chunk_still_counts_as_restored(self):
        # a whole-chunk read hands out the chunk object itself; writing
        # it back after a change must install a copy, or the live table
        # would share it with the snapshot and the restore would count 0
        device = make_device()
        device.write(0, b"A" * CHUNK)
        saved = device.read(0, CHUNK)
        snapshot = device.snapshot_chunks()
        device.write(0, b"B" * CHUNK)
        device.write(0, saved)
        assert device.restore_snapshot(snapshot) == CHUNK

    def test_restore_snapshot_rejects_wrong_geometry(self):
        device = make_device()
        other = make_device(size=8 * CHUNK)
        with pytest.raises(DeviceError):
            device.restore_snapshot(other.snapshot_chunks())

    def test_restore_image_counts_only_diverged_chunks(self):
        device = make_device()
        device.write(0, b"A" * CHUNK)
        image = device.snapshot_image()
        device.stats.reset()
        device.write(2 * CHUNK, b"D" * CHUNK)
        device.restore_image(image)
        # chunk 0 already matches the image; only chunk 2 is rewritten
        assert device.stats.bytes_restored == CHUNK
        assert device.read(2 * CHUNK, CHUNK) == b"\x00" * CHUNK

    def test_restore_image_rejects_wrong_length(self):
        device = make_device()
        with pytest.raises(DeviceError):
            device.restore_image(b"short")


class TestMTDAndFaultProxies:
    def test_mtd_snapshot_chunks_are_erase_blocks(self):
        mtd = MTDDevice(64 * 1024, clock=SimClock(), name="mtd")
        snapshot = mtd.snapshot_chunks()
        assert snapshot.chunk_size == mtd.erase_block_size
        assert snapshot.materialize() == b"\xff" * mtd.size_bytes

    def test_mtd_erase_write_restore_round_trip(self):
        mtd = MTDDevice(64 * 1024, clock=SimClock(), name="mtd")
        snapshot = mtd.snapshot_chunks()
        mtd.write(0, b"\x00" * 16)  # program bits down from 0xFF
        assert mtd.dirty_bytes_since_snapshot == mtd.erase_block_size
        mtd.restore_snapshot(snapshot)
        assert mtd.read(0, 16) == b"\xff" * 16

    def test_mtd_block_adapter_delegates_to_mtd(self):
        mtd = MTDDevice(64 * 1024, clock=SimClock(), name="mtd")
        adapter = MTDBlockAdapter(mtd)
        adapter.write(0, b"hello")
        snapshot = adapter.snapshot_chunks()
        assert snapshot.device_name == mtd.name
        adapter.write(0, b"WORLD")
        adapter.restore_snapshot(snapshot)
        assert adapter.read(0, 5) == b"hello"

    def test_power_cut_proxies_delegate_cow_surface(self):
        inner = make_device()
        proxy = PowerCutDevice(inner)
        proxy.write(0, b"abc")
        assert proxy.dirty_bytes_since_snapshot == CHUNK
        snapshot = proxy.snapshot_chunks()
        proxy.write(0, b"xyz")
        assert proxy.restore_snapshot(snapshot) == CHUNK
        assert inner.read(0, 3) == b"abc"

        mtd_proxy = PowerCutMTD(MTDDevice(64 * 1024, clock=SimClock()))
        token = mtd_proxy.snapshot_chunks()
        assert isinstance(token, DiskSnapshot)


class TestVfsCheckpointRidesCow:
    def test_vfs_checkpoint_data_plane_is_a_chunk_grab(self):
        """The satellite fix: ``vfs_checkpoint`` used to deep-copy the
        device along with the driver; now the data plane is a shared
        DiskSnapshot and only the driver tables are copied."""
        clock = SimClock()
        device = RAMBlockDevice(256 * 1024, clock=clock, name="dev0")
        fut = make_block_fut("ext2", Ext2FileSystemType(), device, clock)
        token = fut.vfs_checkpoint()
        assert isinstance(token["image"], DiskSnapshot)
        # the snapshot's chunks are the device's own (shared, not copied)
        live = device.snapshot_chunks()
        assert all(a is b for a, b in zip(token["image"].chunks, live.chunks))
        # the driver copy is pinned to the same device object
        assert token["driver"].device is device


# ---------------------------------------------- the flat table as reference --
class FlatChunkTable:
    """The flat-list chunk table ``ChunkedStore`` kept before its table
    was grouped: one list entry per chunk, every snapshot a full tuple
    copy, every restore a scan of every chunk identity.  Kept as the
    reference the grouped table must match byte for byte, counter for
    counter and in which chunk objects its snapshots share."""

    def __init__(self, size_bytes, chunk_size, fill):
        cs = self.chunk_size = max(1, min(chunk_size, size_bytes))
        full, tail = divmod(size_bytes, cs)
        self.chunks = [bytes([fill]) * cs] * full
        if tail:
            self.chunks.append(bytes([fill]) * tail)
        self.dirty = set()
        self.bytes_snapshotted = self.bytes_restored = 0

    def store(self, offset, data):
        view, consumed = memoryview(data), 0
        while consumed < len(view):
            index, within = divmod(offset + consumed, self.chunk_size)
            old = self.chunks[index]
            take = min(len(old) - within, len(view) - consumed)
            piece = view[consumed : consumed + take]
            if old[within : within + take] != piece:
                self.chunks[index] = (old[:within] + bytes(piece)
                                      + old[within + take :])
                self.dirty.add(index)
            consumed += take

    def read(self, offset, length):
        return b"".join(self.chunks)[offset : offset + length]

    def erase(self, index, erased):
        if self.chunks[index] != erased:
            self.chunks[index] = erased
            self.dirty.add(index)

    @property
    def dirty_bytes(self):
        return sum(len(self.chunks[index]) for index in self.dirty)

    def snapshot(self):
        self.bytes_snapshotted += self.dirty_bytes
        self.dirty.clear()
        return tuple(self.chunks)

    def restore(self, chunks):
        changed = sum(len(new) for new, current in zip(chunks, self.chunks)
                      if new is not current)
        self.chunks = list(chunks)
        self.dirty.clear()
        self.bytes_restored += changed
        return changed


def sharing_pattern(snapshots):
    """Label every chunk object by first appearance across ``snapshots``:
    two tables share alike iff their label sequences are equal."""
    labels = {}
    return [labels.setdefault(id(chunk), len(labels))
            for snapshot in snapshots for chunk in snapshot]


#: (kind, size in bytes, chunk or erase-block size): 1, 64, 65 and 4 096
#: chunks, a short tail chunk just past a group boundary, and MTD flash
GEOMETRIES = [
    ("ram", CHUNK, CHUNK),
    ("ram", 64 * CHUNK, CHUNK),
    ("ram", 65 * CHUNK, CHUNK),
    ("ram", 4096 * CHUNK, CHUNK),
    ("ram", 64 * CHUNK + 1536, CHUNK),
    ("mtd", 65 * 1024, 1024),
]


class GroupedTableMachine(RuleBasedStateMachine):
    """Drive a real device and the flat reference through the same
    writes, identical rewrites, write-backs of earlier payload and read
    objects, snapshots, out-of-order restores and (on MTD) erases,
    comparing everything observable after each step."""

    @initialize(geometry=st.sampled_from(GEOMETRIES))
    def build(self, geometry):
        kind, size, chunk = geometry
        if kind == "mtd":
            self.device = MTDDevice(size, erase_block_size=chunk,
                                    clock=SimClock(), name="mtd")
            self.erased = b"\xff" * chunk
        else:
            self.device = RAMBlockDevice(size, clock=SimClock(), name="dev")
        self.reference = FlatChunkTable(size, chunk,
                                        0xFF if kind == "mtd" else 0)
        self.chunk = self.device.chunk_size
        self.snapshots = []  # (device token, reference tuple)
        self.saved = []  # (offset, the very object written or read)

    def _range(self, data):
        """An aligned, unaligned or boundary-straddling (offset, length)."""
        size, cs = self.device.size_bytes, self.chunk
        last = (size - 1) // cs
        # half the draws land next to a group boundary or the device's end
        edges = sorted({min(i, last) for i in (0, 62, 63, 64, last - 1, last)
                        if i >= 0})
        index = data.draw(st.integers(0, last) | st.sampled_from(edges))
        shape = data.draw(st.sampled_from(["aligned", "unaligned", "straddle"]))
        if shape == "aligned":
            offset = index * cs
            length = cs * data.draw(st.integers(1, 3))
        elif shape == "unaligned":
            offset = index * cs + data.draw(st.integers(0, cs - 1))
            length = data.draw(st.integers(1, 64))
        else:
            offset = (index + 1) * cs - data.draw(st.integers(1, 64))
            length = data.draw(st.integers(2, cs + 128))
        offset = min(max(0, offset), size - 1)
        return offset, min(length, size - offset)

    @rule(data=st.data(), fill=st.sampled_from([0x00, 0x41, 0x42]))
    def write(self, data, fill):
        offset, length = self._range(data)
        payload = bytes([fill]) * length
        if isinstance(self.device, MTDDevice):  # flash only clears bits
            current = self.reference.read(offset, length)
            payload = bytes(c & b for c, b in zip(current, payload))
        self.device.write(offset, payload)
        self.reference.store(offset, payload)
        self.saved.append((offset, payload))

    @rule(data=st.data())
    def identical_rewrite(self, data):
        offset, length = self._range(data)
        payload = self.device.read(offset, length)
        assert payload == self.reference.read(offset, length)
        self.device.write(offset, payload)
        self.reference.store(offset, payload)
        # a whole-chunk read is the chunk object itself: keep it for
        # write_back, which may hand it to the device after a change
        self.saved.append((offset, payload))

    # MTD programs a buffer of its own, never the caller's object
    @precondition(lambda self: self.saved
                  and not isinstance(self.device, MTDDevice))
    @rule(data=st.data())
    def write_back(self, data):
        """Change the range of an earlier write or read, then write that
        very object back."""
        offset, payload = data.draw(st.sampled_from(self.saved))
        for blob in (bytes(b ^ 0xFF for b in payload), payload):
            self.device.write(offset, blob)
            self.reference.store(offset, blob)

    @precondition(lambda self: isinstance(self.device, MTDDevice))
    @rule(data=st.data())
    def erase(self, data):
        block = data.draw(st.integers(0, self.device.erase_block_count - 1))
        self.device.erase_block(block)
        self.reference.erase(block, self.erased)

    @rule()
    def snapshot(self):
        self.snapshots.append((self.device.snapshot_chunks(),
                               self.reference.snapshot()))

    @precondition(lambda self: self.snapshots)
    @rule(data=st.data())
    def restore(self, data):
        token, chunks = data.draw(st.sampled_from(self.snapshots))
        assert self.device.restore_snapshot(token) == \
            self.reference.restore(chunks)

    @invariant()
    def counters_match(self):
        stats = self.device.stats
        assert stats.bytes_snapshotted == self.reference.bytes_snapshotted
        assert stats.bytes_restored == self.reference.bytes_restored
        assert self.device.dirty_bytes_since_snapshot == \
            self.reference.dirty_bytes

    def teardown(self):
        if not hasattr(self, "device"):
            return
        # chunk by chunk: a 16 MiB image per snapshot would not fit
        position = 0
        for chunk in self.reference.chunks:
            assert self.device.read(position, len(chunk)) == chunk
            position += len(chunk)
        self.snapshot()  # the live table shares (or not) like the rest
        tokens = [token.chunks for token, _ in self.snapshots]
        references = [chunks for _, chunks in self.snapshots]
        for token, chunks in zip(tokens, references):
            assert list(token) == list(chunks)
        assert sharing_pattern(tokens) == sharing_pattern(references)


TestGroupedTableMatchesFlatReference = GroupedTableMachine.TestCase
TestGroupedTableMatchesFlatReference.settings = settings(
    max_examples=100, stateful_step_count=25, deadline=None)
