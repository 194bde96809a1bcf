"""Raw-image access and the fsck walk shared by the block formats.

Checkers consume a device image as plain ``bytes`` -- the same view the
model checker gets from :meth:`BlockDevice.snapshot_image` (the paper
mmaps the backing store; we copy it).  Reading bytes instead of going
through a live device keeps the checkers side-effect free: no clock
charges, no cache interference, no chance of perturbing the run under
audit.

:class:`BlockImageChecker` is the e2fsck-style walk every block format
runs, the checker-side twin of :class:`repro.fs.base.MountedBlockFileSystem`:

* the superblock prologue: size, magic, the stored block size, and the
  geometry that block size gives the device (catches truncated images);
* the directory tree reachable from the root: dangling dirents, names
  that are not UTF-8, ``.``/``..`` sanity, duplicate names,
  dtype-vs-mode agreement;
* recomputed link counts vs. stored ``nlink``;
* allocation: metadata marked in use, no allocated block unreferenced
  (a leak), no allocated inode unreachable (an orphan), no free inode
  slot with a live record.

A format keeps only what is its own: the superblock layout and geometry
check, the tables it reads, inode location and allocation, the block
map and its audit, and the directory-size rule.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.errors import FsError
from repro.fs.base import unpack_dirents
from repro.kernel.stat import mode_to_dtype
from repro.util.bitmap import Bitmap


class BlockImage:
    """Block-granular reads over a raw image (zero-padded at the tail).

    Mirrors :class:`repro.fs.base.BufferCache`'s read interface closely
    enough that the checkers can parse the on-disk layout exactly the
    way the mounted drivers do (``MountedExt2._read_bitmaps`` et al.).
    """

    def __init__(self, image: bytes, block_size: int):
        self.image = image
        self.block_size = block_size
        self.block_count = len(image) // block_size

    def block(self, index: int) -> bytes:
        """Read one block; out-of-range or truncated reads return zeros
        for the missing bytes (the checker reports truncation itself
        rather than crashing on it)."""
        if index < 0:
            return b"\x00" * self.block_size
        start = index * self.block_size
        raw = self.image[start : start + self.block_size]
        if len(raw) < self.block_size:
            raw = raw + b"\x00" * (self.block_size - len(raw))
        return raw


class ImageChecker:
    """One offline check of one raw image, and the findings it reports."""

    checker = "fsck"

    def __init__(self, image: bytes):
        self.image = image
        self.findings: List[Finding] = []

    def _finding(self, invariant: str, message: str, location: str = "",
                 severity: str = "error", **detail) -> None:
        self.findings.append(Finding(
            checker=self.checker, invariant=invariant, message=message,
            severity=severity, location=location, detail=detail,
        ))


class BlockImageChecker(ImageChecker):
    """fsck for a raw block-format image; subclasses supply the format."""

    #: the on-disk superblock: magic first, block size third
    magic = b""
    SUPER_FMT = ""
    #: the layout class, built as ``GEOMETRY(device_size, block_size)``
    GEOMETRY = None
    #: the smallest block size (a power of two) the layout can use
    MIN_BLOCK_SIZE = 0
    #: the inode allocation map, as findings name it
    inode_map = ""
    #: the invariant of a free inode slot whose record is not zeroed
    stale_invariant = ""
    root_ino = 0

    def __init__(self, image: bytes):
        super().__init__(image)
        self.geo = None
        self.blocks: Optional[BlockImage] = None
        self.block_bitmap: Optional[Bitmap] = None

    def check(self) -> List[Finding]:
        if self._read_superblock():
            self._walk_tree()
            self._check_journal()
        return self.findings

    # ------------------------------------------------------------- parsing --
    def _read_superblock(self) -> bool:
        """Validate the superblock and read the format's tables; return
        False when nothing else can be checked (wrong magic, or a
        geometry the image cannot hold)."""
        size = struct.calcsize(self.SUPER_FMT)
        if len(self.image) < size:
            self._finding("superblock-magic",
                          f"image of {len(self.image)} bytes cannot hold a superblock",
                          location="block 0")
            return False
        fields = struct.unpack(self.SUPER_FMT, self.image[:size])
        magic, block_size = fields[0], fields[2]
        if magic != self.magic:
            self._finding("superblock-magic",
                          f"bad magic {magic!r} (expected {self.magic!r})",
                          location="block 0")
            return False
        if block_size < self.MIN_BLOCK_SIZE or block_size & (block_size - 1):
            self._finding("superblock-geometry",
                          f"superblock block size {block_size} is not a power "
                          f"of two of at least {self.MIN_BLOCK_SIZE}",
                          location="block 0", superblock=block_size)
            return False
        try:
            geo = self._make_geometry(block_size)
        except FsError as error:
            self._finding("superblock-geometry",
                          f"device cannot hold the metadata layout: {error}",
                          location="block 0")
            return False
        if not self._check_geometry(geo, fields):
            return False
        self.geo = geo
        self.blocks = BlockImage(self.image, block_size)
        self._read_tables(fields)
        return True

    def _make_geometry(self, block_size: int):
        return self.GEOMETRY(len(self.image), block_size)

    def _read_bitmap(self, start: int, blocks: int, bits: int) -> Bitmap:
        raw = b"".join(self.blocks.block(start + i) for i in range(blocks))
        return Bitmap.from_bytes(raw, bits)

    def _data_block_ok(self, block: int) -> bool:
        return self.geo.first_data_block <= block < self.geo.block_count

    def _read_file(self, inode, length: int) -> bytes:
        """Read a file's first ``length`` bytes, never past the image's
        last block; unmappable blocks read as zeros (the walk reports
        them separately)."""
        bs = self.blocks.block_size
        chunks: List[bytes] = []
        for file_block in range(min(-(-length // bs), self.blocks.block_count)):
            device_block = self._file_block(inode, file_block)
            if device_block and self._data_block_ok(device_block):
                chunks.append(self.blocks.block(device_block))
            else:
                chunks.append(b"\x00" * bs)
        return b"".join(chunks)[:length]

    # ---------------------------------------------------------------- walk --
    def _walk_tree(self) -> None:
        claims: Dict[int, object] = {}
        link_counts: Dict[int, int] = {}
        subdir_counts: Dict[int, int] = {}
        reachable = {}

        root = self._load_inode(self.root_ino)
        if root is None or root.mode == 0 or not root.is_dir:
            mode = root.mode if root is not None else 0
            self._finding("missing-root",
                          f"root inode {self.root_ino} is not a directory "
                          f"(mode {mode:#o})", location=f"ino {self.root_ino}")
            return
        reachable[self.root_ino] = root
        stack: List[Tuple[int, int]] = [(self.root_ino, self.root_ino)]
        audited = set()
        while stack:
            ino, parent = stack.pop()
            if ino in audited:
                continue
            audited.add(ino)
            inode = reachable[ino]
            self._audit_blocks(inode, claims)
            if inode.is_dir:
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

    def _audit_directory(self, ino: int, inode, parent: int,
                         link_counts: Dict[int, int],
                         subdir_counts: Dict[int, int],
                         stack: List[Tuple[int, int]],
                         reachable: Dict[int, object]) -> None:
        entries = unpack_dirents(self._read_file(inode, self._dir_stream_length(inode)))
        names = set()
        dot = dotdot = None
        for entry_ino, dtype, name in entries:
            # unpack_dirents escapes bytes that are not UTF-8 as lone surrogates
            if any("\udc80" <= char <= "\udcff" for char in name):
                self._finding("dirent-name-invalid",
                              f"dirent {name!r} in ino {ino} is not valid UTF-8",
                              location=f"ino {ino}", target=entry_ino)
                continue
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
            if not self._inode_allocated(entry_ino):
                self._finding("dangling-dirent",
                              f"dirent {name!r} in ino {ino} points at "
                              f"unallocated ino {entry_ino}",
                              location=f"ino {ino}", name=name, target=entry_ino)
                continue
            child = self._load_inode(entry_ino)
            if child is None or child.mode == 0:
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
        self._check_dir_size(ino, inode, entries)

    def _audit_allocation(self, claims: Dict[int, object],
                          reachable: Dict[int, object]) -> None:
        geo = self.geo
        for block in range(geo.first_data_block):
            if not self.block_bitmap.get(block):
                self._finding("metadata-unallocated",
                              f"metadata block {block} is free in the block "
                              f"bitmap", location=f"block {block}", block=block)
        metadata = self._metadata_blocks()
        for block in range(geo.first_data_block, geo.block_count):
            if (self.block_bitmap.get(block) and block not in claims
                    and block not in metadata):
                self._finding("block-leak",
                              f"block {block} is allocated but not referenced "
                              f"by any reachable inode",
                              location=f"block {block}", block=block)
        for ino, allocated in self._inode_slots():
            if allocated and ino not in reachable:
                self._finding("inode-orphan",
                              f"ino {ino} is allocated in {self.inode_map} but "
                              f"unreachable from the root",
                              location=f"ino {ino}", ino=ino)
            elif not allocated:
                record = self._load_inode(ino)
                if record is not None and record.mode != 0:
                    self._finding(self.stale_invariant,
                                  f"ino {ino} is free in {self.inode_map} but "
                                  f"its on-disk record is not zeroed",
                                  location=f"ino {ino}", severity="warn",
                                  ino=ino)

    # ------------------------------------------- format hooks with defaults --
    def _metadata_blocks(self) -> Iterable[int]:
        """Data-area blocks the format's own metadata lives in."""
        return ()

    def _check_dir_size(self, ino: int, inode, entries) -> None:
        """A size rule over a directory's entries; none by default."""

    def _check_journal(self) -> None:
        """Only a journaling format has one to check."""
