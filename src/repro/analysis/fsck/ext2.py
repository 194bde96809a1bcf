"""Offline image checker for SimExt2 (and, via subclass, SimExt4).

The walk, the superblock prologue, link counts, leaks and orphans are
:class:`~repro.analysis.fsck.image.BlockImageChecker`'s.  This module
holds what is ext2's own, parsed with the formats the mounted driver
uses (bitmaps as ``MountedExt2._read_bitmaps``, 128-byte inode records,
direct + one indirect block map):

* block accounting: every reachable block in range, claimed at most
  once and marked allocated; ``nblocks`` matching the mapped-block
  recount; no block mapped past the size;
* directory size: a positive whole number of blocks, every one mapped;
* the inode bitmap as the inode map (``inode-stale``: a free slot whose
  record is not zeroed);
* (ext4) journal region: a committed transaction must fit the journal
  and point at in-range home blocks.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.analysis.fsck.image import BlockImageChecker
from repro.fs.ext2 import (
    DIRECT_POINTERS,
    Ext2Geometry,
    Ext2Inode,
    INODE_SIZE,
    MAGIC as EXT2_MAGIC,
    ROOT_INO,
    SUPER_FMT,
)
from repro.fs.ext4 import (
    Ext4Geometry,
    JOURNAL_COMMIT,
    JOURNAL_DESCRIPTOR,
    JOURNAL_HEADER_FMT,
    JOURNAL_HEADER_SIZE,
    JOURNAL_MAGIC,
    MAGIC as EXT4_MAGIC,
)


class Ext2ImageChecker(BlockImageChecker):
    """fsck for a raw SimExt2 image."""

    checker = "fsck.ext2"
    magic = EXT2_MAGIC
    SUPER_FMT = SUPER_FMT
    GEOMETRY = Ext2Geometry
    MIN_BLOCK_SIZE = INODE_SIZE  # an inode-table block holds one record
    inode_map = "the inode bitmap"
    stale_invariant = "inode-stale"
    root_ino = ROOT_INO
    SUPER_GEOMETRY = ("block_count", "inode_count", "first_data_block")

    # ------------------------------------------------------------- parsing --
    def _read_tables(self, fields: tuple) -> None:
        geo = self.geo
        self.block_bitmap = self._read_bitmap(
            geo.block_bitmap_start, geo.block_bitmap_blocks, geo.block_count)
        self.inode_bitmap = self._read_bitmap(
            geo.inode_bitmap_start, geo.inode_bitmap_blocks, geo.inode_count)

    def _load_inode(self, ino: int) -> Ext2Inode:
        geo = self.geo
        index = ino - 1
        block = geo.inode_table_start + index // geo.inodes_per_block
        offset = (index % geo.inodes_per_block) * INODE_SIZE
        raw = self._block(block)[offset : offset + INODE_SIZE]
        return Ext2Inode.unpack(ino, raw)

    def _inode_allocated(self, ino: int) -> bool:
        return 1 <= ino <= self.geo.inode_count and self.inode_bitmap.get(ino - 1)

    def _inode_slots(self):
        # ino 1 is reserved (bad blocks): allocated by mkfs, mode 0
        for ino in range(2, self.geo.inode_count + 1):
            yield ino, self.inode_bitmap.get(ino - 1)

    def _read_indirect(self, block: int) -> List[int]:
        count = self.geo.block_size // 4
        raw = self._block(block)
        return list(struct.unpack(f"<{count}I", raw[: count * 4]))

    def _file_block(self, inode: Ext2Inode, file_block: int) -> int:
        if file_block < DIRECT_POINTERS:
            return inode.direct[file_block]
        index = file_block - DIRECT_POINTERS
        if index >= self.geo.block_size // 4 or not inode.indirect:
            return 0
        if not self._data_block_ok(inode.indirect):
            return 0
        return self._read_indirect(inode.indirect)[index]

    def _dir_stream_length(self, inode: Ext2Inode) -> int:
        return inode.size

    # --------------------------------------------------------- block audit --
    def _claim(self, block: int, ino: int, what: str,
               claims: Dict[int, Tuple[int, str]]) -> None:
        if not self._data_block_ok(block):
            self._finding("block-out-of-range",
                          f"ino {ino} maps {what} to block {block}, outside the "
                          f"data area [{self.geo.first_data_block}, "
                          f"{self.geo.block_count})", location=f"ino {ino}",
                          block=block)
            return
        if block in claims:
            other_ino, other_what = claims[block]
            self._finding("block-multiply-claimed",
                          f"block {block} claimed as {what} by ino {ino} and as "
                          f"{other_what} by ino {other_ino}",
                          location=f"block {block}", block=block,
                          inos=[other_ino, ino])
            return
        claims[block] = (ino, what)
        if not self.block_bitmap.get(block):
            self._finding("block-not-allocated",
                          f"block {block} ({what} of ino {ino}) is in use but "
                          f"free in the block bitmap", location=f"block {block}",
                          block=block, ino=ino)

    def _audit_blocks(self, inode: Ext2Inode,
                      claims: Dict[int, Tuple[int, str]]) -> None:
        ino = inode.ino
        bs = self.geo.block_size
        size_blocks = (inode.size + bs - 1) // bs
        data = [(file_block, block)
                for file_block, block in enumerate(inode.direct) if block]
        for file_block, block in data:
            self._claim_data(inode, file_block, block, size_blocks, claims)
        if inode.indirect:
            self._claim(inode.indirect, ino, "indirect block", claims)
            if self._data_block_ok(inode.indirect):
                pointers = self._read_indirect(inode.indirect)
                indirect = [(DIRECT_POINTERS + index, block)
                            for index, block in enumerate(pointers) if block]
                for file_block, block in indirect:
                    self._claim_data(inode, file_block, block, size_blocks, claims)
                data += indirect
        if inode.xattr_block:
            self._claim(inode.xattr_block, ino, "xattr block", claims)
        mapped = len(data) + bool(inode.indirect) + bool(inode.xattr_block)
        if mapped != inode.nblocks:
            self._finding("nblocks-mismatch",
                          f"ino {ino} says nblocks={inode.nblocks} but maps "
                          f"{mapped} blocks", location=f"ino {ino}",
                          stored=inode.nblocks, recomputed=mapped)
        if not inode.is_dir:
            return
        # ext2 semantics: a directory is a whole number of mapped blocks
        if inode.size == 0 or inode.size % bs:
            self._finding("dir-size-misaligned",
                          f"directory ino {ino} has size {inode.size}, "
                          f"not a positive multiple of the block size",
                          location=f"ino {ino}", size=inode.size)
        within = sum(1 for file_block, _ in data if file_block < size_blocks)
        if within < size_blocks:
            self._finding("dir-size-unmapped",
                          f"directory ino {ino} has size {inode.size} but maps "
                          f"only {within} of the {size_blocks} blocks it spans",
                          location=f"ino {ino}", size=inode.size, mapped=within)

    def _claim_data(self, inode: Ext2Inode, file_block: int, block: int,
                    size_blocks: int, claims: Dict[int, Tuple[int, str]]) -> None:
        self._claim(block, inode.ino, f"data block {file_block}", claims)
        if file_block >= size_blocks:
            self._finding("block-beyond-size",
                          f"ino {inode.ino} maps file block {file_block} but "
                          f"size {inode.size} needs only {size_blocks} "
                          f"blocks", location=f"ino {inode.ino}",
                          severity="warn", file_block=file_block)


class Ext4ImageChecker(Ext2ImageChecker):
    """fsck for a raw SimExt4 image: ext2 checks plus journal consistency."""

    checker = "fsck.ext4"
    magic = EXT4_MAGIC

    def __init__(self, image: bytes, journal_blocks: int = 16):
        super().__init__(image)
        self.journal_blocks = journal_blocks

    def _make_geometry(self, block_size: int) -> Ext4Geometry:
        return Ext4Geometry(len(self.image), block_size, self.journal_blocks)

    def _check_journal(self) -> None:
        geo: Ext4Geometry = self.geo
        head = self._block(geo.journal_start)
        magic, record, count, txn = struct.unpack(
            JOURNAL_HEADER_FMT, head[:JOURNAL_HEADER_SIZE]
        )
        if magic != JOURNAL_MAGIC:
            return  # retired (zeroed) head, or data from before the journal
        if record != JOURNAL_DESCRIPTOR:
            self._finding("journal-inconsistent",
                          f"journal head has record type {record}, expected a "
                          f"descriptor", location=f"block {geo.journal_start}",
                          record=record)
            return
        if count + 2 > geo.journal_blocks:
            self._finding("journal-inconsistent",
                          f"descriptor claims {count} blocks, which cannot fit "
                          f"a {geo.journal_blocks}-block journal",
                          location=f"block {geo.journal_start}", count=count)
            return
        commit_raw = self._block(geo.journal_start + 1 + count)
        commit = struct.unpack(JOURNAL_HEADER_FMT, commit_raw[:JOURNAL_HEADER_SIZE])
        if commit[0] != JOURNAL_MAGIC or commit[1] != JOURNAL_COMMIT:
            # Uncommitted transaction: a legal crash leftover, mount ignores it.
            self._finding("journal-uncommitted",
                          f"transaction {txn} has a descriptor but no commit "
                          f"record (crash leftover)", severity="info",
                          location=f"block {geo.journal_start}", txn=txn)
            return
        if commit[3] != txn:
            self._finding("journal-inconsistent",
                          f"commit record txn {commit[3]} does not match "
                          f"descriptor txn {txn}",
                          location=f"block {geo.journal_start + 1 + count}",
                          descriptor_txn=txn, commit_txn=commit[3])
            return
        targets = struct.unpack(
            f"<{count}I", head[JOURNAL_HEADER_SIZE : JOURNAL_HEADER_SIZE + 4 * count]
        )
        for target in targets:
            if not (0 <= target < geo.block_count) or (
                geo.journal_start <= target < geo.journal_start + geo.journal_blocks
            ):
                self._finding("journal-inconsistent",
                              f"committed transaction {txn} targets block "
                              f"{target}, which is out of range or inside the "
                              f"journal itself",
                              location=f"block {geo.journal_start}",
                              target=target, txn=txn)
