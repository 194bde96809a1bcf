"""Offline image checker for SimXFS.

The walk itself -- tree, link counts, leaks and orphans -- is
:class:`~repro.analysis.fsck.image.BlockImageChecker`'s.  SimXFS maps
files with inline extent lists and allocates inodes in 16-slot chunks
carved out of the data area, so the extent and chunk machinery get
their own invariants:

* ``extent-overlap`` -- extents overlapping within one inode (in file
  or device space) or across inodes;
* ``extent-out-of-range`` -- an extent running outside the data area;
* ``extent-not-allocated`` -- extent blocks free in the bitmap;
* ``chunk-mask-mismatch`` (warn) -- a slot free in its chunk mask whose
  on-disk record is not zeroed (ext2's ``inode-stale``);
* ``dir-size-mismatch`` -- a directory size that is not the sum of its
  entries' 8-byte-aligned record sizes.

SimXFS has no journal (``sync`` is a plain write-back flush), so only
the ext4 checker checks one; see ``docs/analysis.md``.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.fsck.image import BlockImageChecker
from repro.fs.xfs import (
    CHUNK_ENTRY_FMT,
    CHUNK_ENTRY_SIZE,
    INODE_SIZE,
    INODES_PER_CHUNK,
    MAGIC as XFS_MAGIC,
    SUPER_FMT,
    XfsGeometry,
    XfsInode,
    _dirent_record_size,
)


class XfsImageChecker(BlockImageChecker):
    """fsck for a raw SimXFS image."""

    checker = "fsck.xfs"
    magic = XFS_MAGIC
    SUPER_FMT = SUPER_FMT
    GEOMETRY = XfsGeometry
    MIN_BLOCK_SIZE = INODES_PER_CHUNK * INODE_SIZE  # a chunk fills one block
    inode_map = "its chunk mask"
    stale_invariant = "chunk-mask-mismatch"
    SUPER_GEOMETRY = ("block_count", "chunk_index_start", "chunk_index_blocks")

    # ------------------------------------------------------------- parsing --
    def _read_tables(self, fields: tuple) -> None:
        geo = self.geo
        self.root_ino, self.chunks = fields[6], []
        self.block_bitmap = self._read_bitmap(
            geo.bitmap_start, geo.bitmap_blocks, geo.block_count)
        for i in range(geo.chunk_index_blocks):
            raw = self._block(geo.chunk_index_start + i)
            for offset in range(0, geo.block_size, CHUNK_ENTRY_SIZE):
                block, mask, _pad = struct.unpack(
                    CHUNK_ENTRY_FMT, raw[offset : offset + CHUNK_ENTRY_SIZE]
                )
                if block == 0:
                    return
                self.chunks.append((block, mask))

    def _inode_allocated(self, ino: int) -> bool:
        chunk_block, slot = (ino - 1) // INODES_PER_CHUNK, (ino - 1) % INODES_PER_CHUNK
        for block, mask in self.chunks:
            if block == chunk_block:
                return not (mask & (1 << slot))
        return False

    def _inode_slots(self):
        """Every chunk's slots, each chunk after its block's bitmap bit."""
        for chunk_block, mask in self.chunks:
            if not self.block_bitmap.get(chunk_block):
                self._finding("extent-not-allocated",
                              f"inode chunk block {chunk_block} is free in the "
                              f"bitmap", location=f"block {chunk_block}",
                              block=chunk_block)
            for slot in range(INODES_PER_CHUNK):
                yield (chunk_block * INODES_PER_CHUNK + slot + 1,
                       not (mask & (1 << slot)))

    def _metadata_blocks(self) -> Set[int]:
        return {block for block, _mask in self.chunks}

    def _load_inode(self, ino: int) -> Optional[XfsInode]:
        chunk_block, slot = (ino - 1) // INODES_PER_CHUNK, (ino - 1) % INODES_PER_CHUNK
        if not 0 < chunk_block < self.geo.block_count:
            return None
        raw = self._block(chunk_block)[slot * INODE_SIZE : (slot + 1) * INODE_SIZE]
        try:
            return XfsInode.unpack(ino, raw)
        except struct.error:
            return None

    def _file_block(self, inode: XfsInode, file_block: int) -> int:
        for start, device_start, count in inode.extents:
            if start <= file_block < start + count:
                return device_start + (file_block - start)
        return 0

    def _dir_stream_length(self, inode: XfsInode) -> int:
        # The packed stream length is bounded by the allocated blocks.
        return inode.nblocks * self.geo.block_size

    def _check_dir_size(self, ino: int, inode: XfsInode, entries) -> None:
        # XFS-style directory size: the sum of aligned entry record sizes.
        expected = sum(_dirent_record_size(name) for _, _, name in entries)
        if inode.size != expected:
            self._finding("dir-size-mismatch",
                          f"directory ino {ino} has size {inode.size}, "
                          f"recomputed {expected} from its entries",
                          location=f"ino {ino}", stored=inode.size,
                          recomputed=expected)

    # --------------------------------------------------------------- extents --
    def _audit_blocks(self, inode: XfsInode, claims: Dict[int, int]) -> None:
        ino = inode.ino
        geo = self.geo
        file_spans: List[Tuple[int, int]] = []
        for start, dev, count in inode.extents:
            if count <= 0:
                self._finding("extent-overlap",
                              f"ino {ino} has a degenerate extent "
                              f"({start}, {dev}, {count})",
                              location=f"ino {ino}", extent=[start, dev, count])
                continue
            if dev < geo.first_data_block or dev + count > geo.block_count:
                self._finding("extent-out-of-range",
                              f"ino {ino} extent ({start}, {dev}, {count}) runs "
                              f"outside the data area "
                              f"[{geo.first_data_block}, {geo.block_count})",
                              location=f"ino {ino}", extent=[start, dev, count])
                continue
            for prev_start, prev_end in file_spans:
                if start < prev_end and start + count > prev_start:
                    self._finding("extent-overlap",
                                  f"ino {ino} extents overlap in file space "
                                  f"around file block {max(start, prev_start)}",
                                  location=f"ino {ino}",
                                  extent=[start, dev, count])
            file_spans.append((start, start + count))
            for offset in range(count):
                block = dev + offset
                if block in claims:
                    self._finding("extent-overlap",
                                  f"device block {block} claimed by both ino "
                                  f"{claims[block]} and ino {ino}",
                                  location=f"block {block}", block=block,
                                  inos=[claims[block], ino])
                    continue
                claims[block] = ino
                if not self.block_bitmap.get(block):
                    self._finding("extent-not-allocated",
                                  f"block {block} (ino {ino}) is in use but "
                                  f"free in the bitmap",
                                  location=f"block {block}", block=block,
                                  ino=ino)
        if inode.xattr_block:
            block = inode.xattr_block
            if not (geo.first_data_block <= block < geo.block_count):
                self._finding("extent-out-of-range",
                              f"ino {ino} xattr block {block} is outside the "
                              f"data area", location=f"ino {ino}", block=block)
            elif block in claims:
                self._finding("extent-overlap",
                              f"xattr block {block} of ino {ino} already "
                              f"claimed by ino {claims[block]}",
                              location=f"block {block}", block=block)
            else:
                claims[block] = ino
                if not self.block_bitmap.get(block):
                    self._finding("extent-not-allocated",
                                  f"xattr block {block} (ino {ino}) is in use "
                                  f"but free in the bitmap",
                                  location=f"block {block}", block=block)
