"""Offline image checker for SimExt2 (and, via subclass, SimExt4).

Parses the raw image with the same formats the mounted driver uses
(superblock, bitmaps exactly as ``MountedExt2._read_bitmaps``, 128-byte
inode records, packed dirent streams) and cross-checks:

* superblock magic and geometry vs. what the device can actually hold
  (catches truncated images);
* the directory tree reachable from the root: dangling dirents,
  ``.``/``..`` sanity, duplicate names, dtype-vs-mode agreement;
* recomputed link counts vs. stored ``nlink``;
* block accounting: every reachable block must be in range, claimed at
  most once, and marked allocated; every allocated data block must be
  claimed by someone (else it leaked); ``nblocks`` must match the
  mapped-block recount;
* inode bitmap vs. reachability: allocated-but-unreachable inodes are
  orphans;
* (ext4) journal region: a committed transaction must fit the journal
  and point at in-range home blocks.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.fsck.image import BlockImage
from repro.errors import FsError
from repro.fs.base import unpack_dirents
from repro.fs.ext2 import (
    DIRECT_POINTERS,
    Ext2Geometry,
    Ext2Inode,
    INODE_SIZE,
    MAGIC as EXT2_MAGIC,
    ROOT_INO,
    SUPER_FMT,
    SUPER_SIZE,
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
from repro.kernel.stat import mode_to_dtype
from repro.util.bitmap import Bitmap


class Ext2ImageChecker:
    """fsck for a raw SimExt2 image."""

    checker = "fsck.ext2"
    magic = EXT2_MAGIC

    def __init__(self, image: bytes, block_size: int = 1024):
        self.image = image
        self.block_size = block_size
        self.findings: List[Finding] = []
        self.geo: Optional[Ext2Geometry] = None
        self.blocks: Optional[BlockImage] = None
        self.block_bitmap: Optional[Bitmap] = None
        self.inode_bitmap: Optional[Bitmap] = None

    # ----------------------------------------------------------- reporting --
    def _finding(self, invariant: str, message: str, location: str = "",
                 severity: str = "error", **detail) -> None:
        self.findings.append(Finding(
            checker=self.checker, invariant=invariant, message=message,
            severity=severity, location=location, detail=detail,
        ))

    # ------------------------------------------------------------- parsing --
    def _make_geometry(self) -> Ext2Geometry:
        return Ext2Geometry(len(self.image), self.block_size)

    def _read_superblock(self) -> bool:
        """Validate the superblock; return False when nothing else can be
        checked (wrong magic or a device too small to hold metadata)."""
        if len(self.image) < SUPER_SIZE:
            self._finding("superblock-magic",
                          f"image of {len(self.image)} bytes cannot hold a superblock",
                          location="block 0")
            return False
        magic, _version, sb_bs, blocks, inodes, first_data, _generation = (
            struct.unpack(SUPER_FMT, self.image[:SUPER_SIZE])
        )
        if magic != self.magic:
            self._finding("superblock-magic",
                          f"bad magic {magic!r} (expected {self.magic!r})",
                          location="block 0")
            return False
        if sb_bs != self.block_size:
            self._finding("superblock-geometry",
                          f"superblock block size {sb_bs} != checker block size "
                          f"{self.block_size}", location="block 0",
                          superblock=sb_bs, expected=self.block_size)
            return False
        try:
            geo = self._make_geometry()
        except FsError as error:
            self._finding("superblock-geometry",
                          f"device cannot hold the metadata layout: {error}",
                          location="block 0")
            return False
        if (blocks, inodes, first_data) != (
            geo.block_count, geo.inode_count, geo.first_data_block
        ):
            self._finding(
                "superblock-geometry",
                f"superblock claims {blocks} blocks / {inodes} inodes / first "
                f"data block {first_data}, device holds {geo.block_count} / "
                f"{geo.inode_count} / {geo.first_data_block} (truncated image?)",
                location="block 0",
                superblock=[blocks, inodes, first_data],
                derived=[geo.block_count, geo.inode_count, geo.first_data_block],
            )
            return False
        self.geo = geo
        self.blocks = BlockImage(self.image, self.block_size)
        return True

    def _read_bitmaps(self) -> None:
        geo, blocks = self.geo, self.blocks
        raw = b"".join(blocks.block(geo.block_bitmap_start + i)
                       for i in range(geo.block_bitmap_blocks))
        self.block_bitmap = Bitmap.from_bytes(raw, geo.block_count)
        raw = b"".join(blocks.block(geo.inode_bitmap_start + i)
                       for i in range(geo.inode_bitmap_blocks))
        self.inode_bitmap = Bitmap.from_bytes(raw, geo.inode_count)

    def _load_inode(self, ino: int) -> Ext2Inode:
        geo = self.geo
        index = ino - 1
        block = geo.inode_table_start + index // geo.inodes_per_block
        offset = (index % geo.inodes_per_block) * INODE_SIZE
        raw = self.blocks.block(block)[offset : offset + INODE_SIZE]
        return Ext2Inode.unpack(ino, raw)

    def _pointers_per_block(self) -> int:
        return self.geo.block_size // 4

    def _read_indirect(self, block: int) -> List[int]:
        count = self._pointers_per_block()
        raw = self.blocks.block(block)
        return list(struct.unpack(f"<{count}I", raw[: count * 4]))

    def _file_block(self, inode: Ext2Inode, file_block: int) -> int:
        if file_block < DIRECT_POINTERS:
            return inode.direct[file_block]
        index = file_block - DIRECT_POINTERS
        if index >= self._pointers_per_block() or not inode.indirect:
            return 0
        if not self._data_block_ok(inode.indirect):
            return 0
        return self._read_indirect(inode.indirect)[index]

    def _data_block_ok(self, block: int) -> bool:
        return self.geo.first_data_block <= block < self.geo.block_count

    def _read_file(self, inode: Ext2Inode) -> bytes:
        """Read a whole file's content; unmappable blocks read as zeros
        (the walk reports them separately)."""
        bs = self.geo.block_size
        chunks: List[bytes] = []
        remaining = inode.size
        file_block = 0
        while remaining > 0:
            take = min(bs, remaining)
            device_block = self._file_block(inode, file_block)
            if device_block and self._data_block_ok(device_block):
                chunks.append(self.blocks.block(device_block)[:take])
            else:
                chunks.append(b"\x00" * take)
            remaining -= take
            file_block += 1
        return b"".join(chunks)

    # ---------------------------------------------------------------- walk --
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

    def _audit_inode_blocks(self, inode: Ext2Inode,
                            claims: Dict[int, Tuple[int, str]]) -> None:
        ino = inode.ino
        mapped = 0
        bs = self.geo.block_size
        size_blocks = (inode.size + bs - 1) // bs
        for file_block in range(DIRECT_POINTERS):
            block = inode.direct[file_block]
            if block:
                mapped += 1
                self._claim(block, ino, f"data block {file_block}", claims)
                if file_block >= size_blocks:
                    self._finding("block-beyond-size",
                                  f"ino {ino} maps file block {file_block} but "
                                  f"size {inode.size} needs only {size_blocks} "
                                  f"blocks", location=f"ino {ino}",
                                  severity="warn", file_block=file_block)
        if inode.indirect:
            mapped += 1
            self._claim(inode.indirect, ino, "indirect block", claims)
            if self._data_block_ok(inode.indirect):
                for index, block in enumerate(self._read_indirect(inode.indirect)):
                    if block:
                        mapped += 1
                        file_block = DIRECT_POINTERS + index
                        self._claim(block, ino, f"data block {file_block}", claims)
                        if file_block >= size_blocks:
                            self._finding("block-beyond-size",
                                          f"ino {ino} maps file block {file_block} "
                                          f"but size {inode.size} needs only "
                                          f"{size_blocks} blocks",
                                          location=f"ino {ino}", severity="warn",
                                          file_block=file_block)
        if inode.xattr_block:
            mapped += 1
            self._claim(inode.xattr_block, ino, "xattr block", claims)
        if mapped != inode.nblocks:
            self._finding("nblocks-mismatch",
                          f"ino {ino} says nblocks={inode.nblocks} but maps "
                          f"{mapped} blocks", location=f"ino {ino}",
                          stored=inode.nblocks, recomputed=mapped)

    def _audit_directory(self, ino: int, inode: Ext2Inode, parent: int,
                         link_counts: Dict[int, int],
                         subdir_counts: Dict[int, int],
                         stack: List[Tuple[int, int]],
                         reachable: Dict[int, Ext2Inode]) -> None:
        entries = unpack_dirents(self._read_file(inode))
        names = set()
        dot = dotdot = None
        for entry_ino, dtype, name in entries:
            if name in names:
                self._finding("duplicate-dirent",
                              f"directory ino {ino} lists {name!r} twice",
                              location=f"ino {ino}", name=name)
            names.add(name)
            if name == ".":
                dot = entry_ino
                continue
            if name == "..":
                dotdot = entry_ino
                continue
            if not 1 <= entry_ino <= self.geo.inode_count:
                self._finding("dangling-dirent",
                              f"dirent {name!r} in ino {ino} points at invalid "
                              f"ino {entry_ino}", location=f"ino {ino}",
                              name=name, target=entry_ino)
                continue
            if not self.inode_bitmap.get(entry_ino - 1):
                self._finding("dangling-dirent",
                              f"dirent {name!r} in ino {ino} points at "
                              f"unallocated ino {entry_ino}",
                              location=f"ino {ino}", name=name, target=entry_ino)
                continue
            child = self._load_inode(entry_ino)
            if child.mode == 0:
                self._finding("dangling-dirent",
                              f"dirent {name!r} in ino {ino} points at zeroed "
                              f"ino {entry_ino}", location=f"ino {ino}",
                              name=name, target=entry_ino)
                continue
            if mode_to_dtype(child.mode) != dtype:
                self._finding("dtype-mismatch",
                              f"dirent {name!r} in ino {ino} has dtype {dtype} "
                              f"but ino {entry_ino} has mode {child.mode:#o}",
                              location=f"ino {ino}", severity="warn",
                              name=name, dtype=dtype, mode=child.mode)
            link_counts[entry_ino] = link_counts.get(entry_ino, 0) + 1
            if child.is_dir:
                subdir_counts[ino] = subdir_counts.get(ino, 0) + 1
            if entry_ino not in reachable:
                stack.append((entry_ino, ino))
            reachable.setdefault(entry_ino, child)
        if dot != ino:
            self._finding("dot-entry",
                          f"directory ino {ino}: '.' is {dot} (expected {ino})",
                          location=f"ino {ino}", got=dot)
        if dotdot != parent:
            self._finding("dotdot-entry",
                          f"directory ino {ino}: '..' is {dotdot} (expected "
                          f"{parent})", location=f"ino {ino}", got=dotdot,
                          expected=parent)

    def _walk_tree(self) -> Dict[int, Ext2Inode]:
        claims: Dict[int, Tuple[int, str]] = {}
        link_counts: Dict[int, int] = {}
        subdir_counts: Dict[int, int] = {}
        reachable: Dict[int, Ext2Inode] = {}

        root = self._load_inode(ROOT_INO)
        if root.mode == 0 or not root.is_dir:
            self._finding("missing-root",
                          f"root inode {ROOT_INO} is not a directory "
                          f"(mode {root.mode:#o})", location=f"ino {ROOT_INO}")
            return reachable
        reachable[ROOT_INO] = root
        stack: List[Tuple[int, int]] = [(ROOT_INO, ROOT_INO)]
        audited = set()
        while stack:
            ino, parent = stack.pop()
            if ino in audited:
                continue
            audited.add(ino)
            inode = reachable[ino]
            self._audit_inode_blocks(inode, claims)
            if inode.is_dir:
                bs = self.geo.block_size
                if inode.size == 0 or inode.size % bs:
                    self._finding("dir-size-misaligned",
                                  f"directory ino {ino} has size {inode.size}, "
                                  f"not a positive multiple of the block size",
                                  location=f"ino {ino}", size=inode.size)
                self._audit_directory(ino, inode, parent, link_counts,
                                      subdir_counts, stack, reachable)

        # Link-count recomputation.
        for ino in sorted(reachable):
            inode = reachable[ino]
            if inode.is_dir:
                expected = 2 + subdir_counts.get(ino, 0)
            else:
                expected = link_counts.get(ino, 0)
            if inode.nlink != expected:
                self._finding("nlink-mismatch",
                              f"ino {ino}: stored nlink {inode.nlink}, "
                              f"recomputed {expected}", location=f"ino {ino}",
                              stored=inode.nlink, recomputed=expected)

        self._audit_allocation(claims, reachable)
        return reachable

    def _audit_allocation(self, claims: Dict[int, Tuple[int, str]],
                          reachable: Dict[int, Ext2Inode]) -> None:
        geo = self.geo
        for block in range(geo.first_data_block):
            if not self.block_bitmap.get(block):
                self._finding("metadata-unallocated",
                              f"metadata block {block} is free in the block "
                              f"bitmap", location=f"block {block}", block=block)
        for block in range(geo.first_data_block, geo.block_count):
            if self.block_bitmap.get(block) and block not in claims:
                self._finding("block-leak",
                              f"block {block} is allocated but not referenced "
                              f"by any reachable inode",
                              location=f"block {block}", block=block)
        for index in range(geo.inode_count):
            ino = index + 1
            if ino == 1:  # reserved (bad blocks), allocated by mkfs, mode 0
                continue
            allocated = self.inode_bitmap.get(index)
            if allocated and ino not in reachable:
                self._finding("inode-orphan",
                              f"ino {ino} is allocated in the inode bitmap but "
                              f"unreachable from the root",
                              location=f"ino {ino}", ino=ino)
            elif not allocated:
                record = self._load_inode(ino)
                if record.mode != 0:
                    self._finding("inode-stale",
                                  f"ino {ino} is free in the inode bitmap but "
                                  f"its on-disk record is not zeroed",
                                  location=f"ino {ino}", severity="warn",
                                  ino=ino)

    # --------------------------------------------------------------- driver --
    def check(self) -> List[Finding]:
        if self._read_superblock():
            self._read_bitmaps()
            self._walk_tree()
            self._check_journal()
        return self.findings

    def _check_journal(self) -> None:
        """ext2 has no journal; the ext4 subclass overrides this."""


class Ext4ImageChecker(Ext2ImageChecker):
    """fsck for a raw SimExt4 image: ext2 checks plus journal consistency."""

    checker = "fsck.ext4"
    magic = EXT4_MAGIC

    def __init__(self, image: bytes, block_size: int = 1024,
                 journal_blocks: int = 16):
        super().__init__(image, block_size)
        self.journal_blocks = journal_blocks

    def _make_geometry(self) -> Ext4Geometry:
        return Ext4Geometry(len(self.image), self.block_size, self.journal_blocks)

    def _check_journal(self) -> None:
        geo: Ext4Geometry = self.geo
        head = self.blocks.block(geo.journal_start)
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
        commit_raw = self.blocks.block(geo.journal_start + 1 + count)
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
