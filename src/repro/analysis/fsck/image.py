"""The tree audit every fsck checker runs, and raw-image access.

:class:`TreeChecker` states the invariants every POSIX tree must hold
however it is stored (the VFS level of Ernst et al.'s model) over two
reads its source supplies, an inode and a directory: reachability from
the root, dangling dirents, names that are not UTF-8, ``.``/``..``,
duplicate names, one parent per directory, dtype-vs-mode agreement, the
link-count recount, and -- where the source has an inode map -- no
orphan and no stale free slot.  The sources: :class:`BlockImageChecker`
(ext2, ext4, xfs) reads a raw image, ``fsck.jffs2`` its replayed log,
``fsck.generic`` a live mount (``check_mounted`` and every driver's
``check_consistency``).

Image checkers read a device image as plain ``bytes`` (what
:meth:`BlockDevice.snapshot_image` returns), so they are side-effect
free.  :class:`BlockImageChecker`, the checker-side twin of
:class:`repro.fs.base.MountedBlockFileSystem`, adds what every block
format checks: the superblock prologue (magic, stored block size, and
the geometry it gives the device, which catches truncated images),
metadata marked in use, and no allocated block unreferenced (a leak).
A format keeps only its superblock layout and tables, inode location
and allocation, block map and block audit, and directory-size rule.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.analysis.findings import Finding
from repro.errors import FsError
from repro.fs.base import unpack_dirents
from repro.kernel.stat import S_IFDIR, S_IFMT, mode_to_dtype
from repro.util.bitmap import Bitmap


class TreeInode(NamedTuple):
    """An inode as a source without on-disk records hands it to the
    audit; ``nlink`` is None where the source stores no link count."""

    ino: int
    mode: int
    nlink: Optional[int]

    @property
    def is_dir(self) -> bool:
        return (self.mode & S_IFMT) == S_IFDIR


class TreeChecker:
    """One fsck run, its findings, and the tree audit over its source.

    A source supplies ``_load_inode(ino)`` (a record with ``mode``,
    ``nlink`` and ``is_dir``, or None) and ``_read_dir(ino, inode)``
    (``(ino, dtype, name)`` triples, dtype None where the source stores
    none); the other hooks default to a source with no inode map and no
    block map.
    """

    checker = "fsck"
    root_ino = 0
    #: whether directories store ``.`` and ``..``; where they do not (a
    #: mount, jffs2), those the source reads are checked all the same
    dots_stored = True
    #: the inode allocation map, and a stale free slot's invariant
    inode_map = stale_invariant = ""

    def __init__(self):
        self.findings: List[Finding] = []

    def _finding(self, invariant: str, message: str, location: str = "",
                 severity: str = "error", **detail) -> None:
        self.findings.append(Finding(
            checker=self.checker, invariant=invariant, message=message,
            severity=severity, location=location, detail=detail,
        ))

    def check(self) -> List[Finding]:
        self._walk_tree()
        return self.findings

    # ---------------------------------------------------------------- walk --
    def _walk_tree(self) -> None:
        root = self._load_inode(self.root_ino)
        if root is None or root.mode == 0 or not root.is_dir:
            mode = root.mode if root is not None else 0
            self._finding("missing-root",
                          f"root inode {self.root_ino} is not a directory "
                          f"(mode {mode:#o})", location=f"ino {self.root_ino}")
            return
        claims: Dict[int, object] = {}
        self.reachable = {self.root_ino: root}
        self._links: Dict[int, int] = {}  # dirents naming each inode
        self._subdirs: Dict[int, int] = {}  # subdirectory dirents per directory
        self._parents = {self.root_ino: self.root_ino}
        # an inode is pushed when first reached, so it is audited once
        stack: List[Tuple[int, int]] = [(self.root_ino, self.root_ino)]
        while stack:
            ino, parent = stack.pop()
            inode = self.reachable[ino]
            self._audit_blocks(inode, claims)
            if inode.is_dir:
                self._audit_directory(ino, inode, parent, stack)
        for ino, inode in sorted(self.reachable.items()):
            expected = (2 + self._subdirs.get(ino, 0) if inode.is_dir
                        else self._links.get(ino, 0))
            if inode.nlink is not None and inode.nlink != expected:
                self._finding("nlink-mismatch",
                              f"ino {ino}: stored nlink {inode.nlink}, "
                              f"recomputed {expected}", location=f"ino {ino}",
                              stored=inode.nlink, recomputed=expected)
        self._audit_allocation(claims)

    def _audit_directory(self, ino: int, inode, parent: int,
                         stack: List[Tuple[int, int]]) -> None:
        entries = self._read_dir(ino, inode)
        names = set()
        dots = {} if self.dots_stored else {".": ino, "..": parent}
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
            if name in (".", ".."):
                dots[name] = entry_ino
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
            if dtype is not None and mode_to_dtype(child.mode) != dtype:
                self._finding("dtype-mismatch",
                              f"dirent {name!r} in ino {ino} has dtype {dtype} "
                              f"but ino {entry_ino} has mode {child.mode:#o}",
                              location=f"ino {ino}", severity="warn",
                              name=name, dtype=dtype, mode=child.mode)
            self._links[entry_ino] = self._links.get(entry_ino, 0) + 1
            if child.is_dir:
                self._subdirs[ino] = self._subdirs.get(ino, 0) + 1
                first = self._parents.setdefault(entry_ino, ino)
                if first != ino:
                    self._finding("dir-multiple-parents",
                                  f"directory ino {entry_ino} is reachable from "
                                  f"both ino {first} and ino {ino}",
                                  location=f"ino {entry_ino}",
                                  parents=[first, ino])
            if entry_ino not in self.reachable:
                self.reachable[entry_ino] = child
                stack.append((entry_ino, ino))
        if dots.get(".") != ino:
            self._finding("dot-entry",
                          f"directory ino {ino}: '.' is {dots.get('.')} "
                          f"(expected {ino})", location=f"ino {ino}",
                          got=dots.get("."))
        if dots.get("..") != parent:
            self._finding("dotdot-entry",
                          f"directory ino {ino}: '..' is {dots.get('..')} "
                          f"(expected {parent})", location=f"ino {ino}",
                          got=dots.get(".."), expected=parent)
        self._check_dir_size(ino, inode, entries)

    def _audit_allocation(self, claims: Dict[int, object]) -> None:
        for ino, allocated in self._inode_slots():
            if allocated and ino not in self.reachable:
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

    # ------------------------ source hooks: no inode map and no block map --
    def _inode_allocated(self, ino: int) -> bool:
        return True

    def _inode_slots(self) -> Iterable[Tuple[int, bool]]:
        return ()  # (ino, allocated) per inode slot

    def _audit_blocks(self, inode, claims: Dict[int, object]) -> None:
        pass

    def _check_dir_size(self, ino: int, inode, entries) -> None:
        pass


class BlockImageChecker(TreeChecker):
    """fsck for a raw block-format image; subclasses supply the format."""

    #: the on-disk superblock: magic first, block size third
    magic = b""
    SUPER_FMT = ""
    #: the layout class, built as ``GEOMETRY(device_size, block_size)``
    GEOMETRY = None
    #: the smallest block size (a power of two) the layout can use
    MIN_BLOCK_SIZE = 0
    #: the geometry attributes the superblock's fields 3-5 must equal
    SUPER_GEOMETRY: Tuple[str, ...] = ()

    def __init__(self, image: bytes):
        super().__init__()
        self.image = image
        self.geo = None
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
        self._read_tables(fields)
        return True

    def _make_geometry(self, block_size: int):
        return self.GEOMETRY(len(self.image), block_size)

    def _check_geometry(self, geo, fields: tuple) -> bool:
        stored = list(fields[3:6])
        derived = [getattr(geo, name) for name in self.SUPER_GEOMETRY]
        if stored != derived:
            self._finding("superblock-geometry",
                          f"superblock claims {stored}, the device derives "
                          f"{derived} as {' / '.join(self.SUPER_GEOMETRY)} "
                          f"(truncated image?)", location="block 0",
                          superblock=stored, derived=derived)
        return stored == derived

    def _block(self, index: int) -> bytes:
        """One block, as :class:`repro.fs.base.BufferCache` reads it for
        the driver; bytes past the image read as zeros (a truncated image
        is the superblock check's to report)."""
        bs = self.geo.block_size
        raw = self.image[index * bs : (index + 1) * bs] if index >= 0 else b""
        return raw + b"\x00" * (bs - len(raw))

    def _read_bitmap(self, start: int, blocks: int, bits: int) -> Bitmap:
        raw = b"".join(self._block(start + i) for i in range(blocks))
        return Bitmap.from_bytes(raw, bits)

    def _data_block_ok(self, block: int) -> bool:
        return self.geo.first_data_block <= block < self.geo.block_count

    def _read_file(self, inode, length: int) -> bytes:
        """Read a file's first ``length`` bytes, never past the image's
        last block; unmappable blocks read as zeros (the walk reports
        them separately)."""
        bs = self.geo.block_size
        chunks: List[bytes] = []
        for file_block in range(min(-(-length // bs), self.geo.block_count)):
            device_block = self._file_block(inode, file_block)
            if device_block and self._data_block_ok(device_block):
                chunks.append(self._block(device_block))
            else:
                chunks.append(b"\x00" * bs)
        return b"".join(chunks)[:length]

    def _audit_allocation(self, claims: Dict[int, object]) -> None:
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
        super()._audit_allocation(claims)

    def _read_dir(self, ino: int, inode):
        return unpack_dirents(self._read_file(inode, self._dir_stream_length(inode)))

    # ------------------------------------------- format hooks with defaults --
    def _metadata_blocks(self) -> Iterable[int]:
        """Data-area blocks the format's own metadata lives in."""
        return ()

    def _check_journal(self) -> None:
        """Only a journaling format has one to check."""
