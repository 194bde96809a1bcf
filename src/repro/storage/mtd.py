"""MTD (Memory Technology Device) simulation for JFFS2.

JFFS2 cannot mount a plain block device: it needs an MTD character device
with erase-block semantics.  The paper loads ``mtdram`` (a RAM-backed MTD
device) plus ``mtdblock`` (a block-interface shim) so Spin can mmap the MTD
storage through the block layer.  :class:`MTDDevice` models mtdram --
byte-readable, write-once-until-erased flash organised in erase blocks.
No mtdblock shim is modelled: the checker snapshots the MTD device
through its own chunk table, the same surface a block device offers.

MTD storage uses the same copy-on-write chunk table as block devices, with
one chunk per erase block: an erase installs the shared all-``0xFF`` chunk
object, so freshly-erased blocks cost nothing to snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.clock import Cost, SimClock
from repro.errors import DeviceError
from repro.storage.device import ChunkedStore, DeviceStats, DiskSnapshot


@dataclass(frozen=True)
class MTDSnapshot(DiskSnapshot):
    """A chunk-table grab that also carries the per-block wear counters.

    Wear is device state, not a diagnostic: JFFS2's wear levelling steers
    garbage collection by it, so a rewind that restored the flash contents
    but kept post-branch wear would let one explored branch bias another's
    GC decisions.  ``isinstance`` checks against :class:`DiskSnapshot`
    (the strategies, ``restore_disk``) keep working by subclassing.
    """

    wear: Tuple[int, ...] = ()


class MTDDevice(ChunkedStore):
    """A NOR-flash-like MTD device (the ``mtdram`` module).

    Semantics modelled:

    * reads are arbitrary-offset, arbitrary-length;
    * writes may only clear bits (program 1 -> 0); writing over already
      programmed bytes without an intervening erase raises ``DeviceError``
      unless the write is bit-compatible;
    * erases operate on whole erase blocks and reset them to ``0xFF``;
    * each erase increments a per-block wear counter.
    """

    def __init__(
        self,
        size_bytes: int,
        erase_block_size: int = 16 * 1024,
        clock: Optional[SimClock] = None,
        name: str = "mtd0",
    ):
        if size_bytes <= 0 or size_bytes % erase_block_size != 0:
            raise ValueError(
                f"MTD size {size_bytes} must be a positive multiple of the "
                f"erase block size {erase_block_size}"
            )
        self.size_bytes = size_bytes
        self.erase_block_size = erase_block_size
        self.erase_block_count = size_bytes // erase_block_size
        self.clock = clock if clock is not None else SimClock()
        self.name = name
        self.stats = DeviceStats()
        # one COW chunk per erase block; the shared 0xFF chunk makes
        # erased blocks free to snapshot
        self._init_chunks(size_bytes, erase_block_size, fill=0xFF)
        self._erased_chunk = bytes([0xFF]) * self.erase_block_size
        self.wear = [0] * self.erase_block_count

    # -- raw flash operations ----------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        self._check_range(offset, length)
        self.clock.charge(Cost.MTD_ACCESS + Cost.MTD_PER_BYTE * length, "mtd-io")
        self.stats.read_requests += 1
        self.stats.bytes_read += length
        return self._read_range(offset, length)

    def write(self, offset: int, data: bytes) -> None:
        """Program bytes.  Flash can only clear bits (1 -> 0)."""
        length = len(data)
        self._check_range(offset, length)
        current = self._read_range(offset, length)
        # one whole-buffer AND: byte i is bits 8i..8i+7 of the little-endian
        # integer, so the lowest bit the write would set names its byte
        have = int.from_bytes(current, "little")
        want = int.from_bytes(data, "little")
        programmed = have & want
        if programmed != want:
            bad = want & ~have
            i = ((bad & -bad).bit_length() - 1) // 8
            raise DeviceError(
                f"{self.name}: programming 0x{data[i]:02x} over "
                f"0x{current[i]:02x} at offset {offset + i} would set "
                f"bits; erase first"
            )
        self.clock.charge(Cost.MTD_ACCESS + Cost.MTD_PER_BYTE * length, "mtd-io")
        self.stats.write_requests += 1
        self.stats.bytes_written += length
        self._store_range(offset, programmed.to_bytes(length, "little"))

    def erase_block(self, block_index: int) -> None:
        if not 0 <= block_index < self.erase_block_count:
            raise DeviceError(f"{self.name}: erase block {block_index} out of range")
        self.clock.charge(Cost.MTD_ERASE, "mtd-erase")
        self.stats.erases += 1
        self.wear[block_index] += 1
        if self._chunk(block_index) != self._erased_chunk:
            # install the shared erased chunk so snapshots dedup it
            self._set_chunk(block_index, self._erased_chunk)

    def is_block_erased(self, block_index: int) -> bool:
        return self._chunk(block_index) == self._erased_chunk

    # -- snapshot / restore (wear rides the checkpoint token) ---------------
    def snapshot_chunks(self) -> MTDSnapshot:
        base = super().snapshot_chunks()
        return MTDSnapshot(
            device_name=base.device_name,
            size_bytes=base.size_bytes,
            chunk_size=base.chunk_size,
            groups=base.groups,
            wear=tuple(self.wear),
        )

    def restore_snapshot(self, snapshot: DiskSnapshot) -> int:
        changed = super().restore_snapshot(snapshot)
        if isinstance(snapshot, MTDSnapshot):
            self.wear = list(snapshot.wear)
        return changed

    def _check_range(self, offset: int, length: int) -> None:
        if length < 0 or offset < 0 or offset + length > self.size_bytes:
            raise DeviceError(
                f"{self.name}: access [{offset}, {offset + length}) outside "
                f"MTD of {self.size_bytes} bytes"
            )
