"""SimExt4: SimExt2 plus a physical-block journal.

The ext4 analogue shares SimExt2's layout and semantics (block-multiple
directory sizes, ``lost+found``, insertion-order getdents) but reserves a
journal region between the inode table and the data area and runs every
``sync`` as a write-ahead transaction:

1. dirty buffer-cache blocks are written to the journal (descriptor block,
   data blocks, commit block);
2. only after the commit record is durable are the blocks checkpointed to
   their home locations;
3. the journal head is then retired.

Mounting replays any committed-but-not-checkpointed transaction, so a
"crash" (dropping the buffer cache without flushing) never produces a
half-written metadata state.  The journal's practical effects on MCFS are
(a) less usable capacity than ext2 on the same device -- which feeds the
free-space equalization workaround of section 3.4 -- and (b) extra write
traffic per flush, visible in the Figure 2 speeds.
"""

from __future__ import annotations

import struct

from repro.errors import EINVAL, FsError
from repro.fs.base import BufferCache
from repro.fs.ext2 import Ext2FileSystemType, Ext2Geometry, MountedExt2

MAGIC = b"SIMEXT4\x00"
JOURNAL_MAGIC = b"JRNL"
JOURNAL_DESCRIPTOR = 1
JOURNAL_COMMIT = 2
JOURNAL_HEADER_FMT = "<4sIIQ"  # magic, record type, block count, txn id
JOURNAL_HEADER_SIZE = struct.calcsize(JOURNAL_HEADER_FMT)

DEFAULT_JOURNAL_BLOCKS = 16


class Ext4Geometry(Ext2Geometry):
    """Ext2 geometry with a journal region carved out of the data area."""

    def __init__(self, device_size: int, block_size: int, journal_blocks: int):
        super().__init__(device_size, block_size)
        self.journal_start = self.first_data_block
        self.journal_blocks = journal_blocks
        self.first_data_block = self.journal_start + journal_blocks
        if self.first_data_block >= self.block_count:
            raise FsError(EINVAL, "device too small to hold ext4 journal")


class MountedExt4(MountedExt2):
    """A live SimExt4 instance: SimExt2 plus write-ahead journaling."""

    MAGIC = MAGIC
    LABEL = "SimExt4"

    def __init__(self, device, block_size: int, journal_blocks: int = DEFAULT_JOURNAL_BLOCKS,
                 cache=None):
        self.journal_blocks = journal_blocks
        super().__init__(device, block_size, cache)
        self._txn_id = self.generation + 1

    def _geometry(self, device_size: int, block_size: int) -> Ext4Geometry:
        return Ext4Geometry(device_size, block_size, self.journal_blocks)

    def _init_raw(self, device, cache, geometry, block_bitmap, inode_bitmap) -> None:
        super()._init_raw(device, cache, geometry, block_bitmap, inode_bitmap)
        self._txn_id = 1

    # ---------------------------------------------------------------- journal --
    def _recover(self, cache: BufferCache, geo: Ext4Geometry) -> None:
        """Journal replay, before any metadata is trusted: apply any
        committed-but-unretired transaction found on disk."""
        descriptor_raw = cache.read_block(geo.journal_start)
        try:
            magic, record, count, txn = struct.unpack(
                JOURNAL_HEADER_FMT, descriptor_raw[:JOURNAL_HEADER_SIZE]
            )
        except struct.error:
            return
        if magic != JOURNAL_MAGIC or record != JOURNAL_DESCRIPTOR:
            return
        if count + 2 > geo.journal_blocks:
            return  # corrupt descriptor; ignore
        commit_raw = cache.read_block(geo.journal_start + 1 + count)
        commit = struct.unpack(JOURNAL_HEADER_FMT, commit_raw[:JOURNAL_HEADER_SIZE])
        if commit[0] != JOURNAL_MAGIC or commit[1] != JOURNAL_COMMIT or commit[3] != txn:
            return  # no commit record: the transaction never completed
        # Target block numbers are packed after the descriptor header.
        targets = struct.unpack(
            f"<{count}I",
            descriptor_raw[JOURNAL_HEADER_SIZE : JOURNAL_HEADER_SIZE + 4 * count],
        )
        for index, target in enumerate(targets):
            data = cache.read_block(geo.journal_start + 1 + index)
            cache.write_block(target, data)
        # Retire the journal head.
        cache.write_block(geo.journal_start, b"")
        cache.flush()

    def _flush(self) -> None:
        """Write-ahead journal the dirty blocks, then checkpoint them."""
        dirty = sorted(self.cache._dirty)  # the cache is our own component
        capacity = self.geo.journal_blocks - 2
        if not dirty:
            return
        if len(dirty) <= capacity:
            header = struct.pack(
                JOURNAL_HEADER_FMT, JOURNAL_MAGIC, JOURNAL_DESCRIPTOR,
                len(dirty), self._txn_id,
            ) + struct.pack(f"<{len(dirty)}I", *dirty)
            self.device.write_block(self.geo.journal_start, self.geo.block_size, header)
            for index, block in enumerate(dirty):
                self.device.write_block(
                    self.geo.journal_start + 1 + index,
                    self.geo.block_size,
                    bytes(self.cache._cache[block]),
                )
            commit = struct.pack(
                JOURNAL_HEADER_FMT, JOURNAL_MAGIC, JOURNAL_COMMIT,
                len(dirty), self._txn_id,
            )
            self.device.write_block(
                self.geo.journal_start + 1 + len(dirty), self.geo.block_size, commit
            )
        # Checkpoint to home locations (large transactions skip the journal,
        # like data blocks in ordered mode).
        self.cache.flush()
        if len(dirty) <= capacity:
            # Retire the journal head now that home locations are durable.
            self.device.write_block(self.geo.journal_start, self.geo.block_size, b"")
        self._txn_id += 1


class Ext4FileSystemType(Ext2FileSystemType):
    """mkfs + mount entry points for SimExt4."""

    name = "ext4"
    min_device_size = 128 * 1024
    special_paths = ("/lost+found",)

    def __init__(self, block_size: int = 1024, journal_blocks: int = DEFAULT_JOURNAL_BLOCKS,
                 cache_blocks=None, inode_cache_capacity=None):
        super().__init__(block_size, cache_blocks=cache_blocks,
                         inode_cache_capacity=inode_cache_capacity)
        self.journal_blocks = journal_blocks

    def mkfs(self, device) -> None:
        if device.size_bytes < (self.min_device_size or 0):
            raise FsError(EINVAL, f"{self.name} needs >= {self.min_device_size} bytes")
        # ext2's format on the journal-shifted geometry; the journal region
        # starts zeroed and the superblock carries the ext4 magic.
        geometry = Ext4Geometry(device.size_bytes, self.block_size, self.journal_blocks)
        MountedExt4._mkfs(device, self._make_cache(device), geometry)

    def mount(self, device, kernel=None) -> MountedExt4:
        return self._apply_tuning(
            MountedExt4(device, self.block_size, self.journal_blocks,
                        cache=self._make_cache(device))
        )
