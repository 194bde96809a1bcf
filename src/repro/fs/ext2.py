"""SimExt2: a bitmap-allocated block file system (the ext2 analogue).

On-disk layout (block size ``bs``, all little-endian)::

    block 0                superblock
    blocks 1..             block allocation bitmap
    blocks ..              inode allocation bitmap
    blocks ..              inode table (128-byte records)
    remaining blocks       data (files, directories, indirect blocks)

Files use 12 direct block pointers plus one single-indirect block.
Directories are packed variable-length entry streams, stored in ordinary
data blocks and **reporting their size as a multiple of the block size**
-- one of the paper's false-positive sources (section 3.4).  ``mkfs``
creates a ``lost+found`` directory, the other false-positive source.
Entries are returned in insertion order.

All I/O goes through a write-back :class:`~repro.fs.base.BufferCache`, so
restoring the device image under a live mount genuinely corrupts state
(section 3.2), which ``check_consistency`` -- the shared fsck tree audit
over this driver's records and block map -- demonstrates.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from repro.errors import EFBIG, EINVAL, ENOSPC, FsError
from repro.fs.base import (BufferCache, InodeRecord, MountedBlockFileSystem,
                           pack_dirent, read_region)
from repro.kernel.stat import DT_DIR, S_IFDIR, StatVFS
from repro.kernel.vfs import FileSystemType
from repro.util.bitmap import Bitmap

MAGIC = b"SIMEXT2\x00"
SUPER_FMT = "<8sIIIIIQ"  # magic, version, block_size, blocks, inodes, first_data, generation
SUPER_SIZE = struct.calcsize(SUPER_FMT)

INODE_FMT = "<4IQ3dI12III"  # mode,uid,gid,nlink, size, a/m/ctime, nblocks, direct[12], indirect, xattr block
INODE_SIZE = 128
DIRECT_POINTERS = 12

ROOT_INO = 2
FIRST_FREE_INO = 3  # ino 1 reserved (bad blocks), 2 is root


class Ext2Inode(InodeRecord):
    """In-memory image of one on-disk inode record."""

    __slots__ = (
        "ino", "mode", "uid", "gid", "nlink", "size",
        "atime", "mtime", "ctime", "nblocks", "direct", "indirect", "xattr_block",
    )

    def __init__(self, ino: int):
        self.ino = ino
        self.mode = 0
        self.uid = 0
        self.gid = 0
        self.nlink = 0
        self.size = 0
        self.atime = 0.0
        self.mtime = 0.0
        self.ctime = 0.0
        self.nblocks = 0
        self.direct = [0] * DIRECT_POINTERS
        self.indirect = 0
        self.xattr_block = 0

    def pack(self) -> bytes:
        raw = struct.pack(
            INODE_FMT,
            self.mode, self.uid, self.gid, self.nlink,
            self.size, self.atime, self.mtime, self.ctime,
            self.nblocks, *self.direct, self.indirect, self.xattr_block,
        )
        return raw + b"\x00" * (INODE_SIZE - len(raw))

    @classmethod
    def unpack(cls, ino: int, raw: bytes) -> "Ext2Inode":
        fields = struct.unpack(INODE_FMT, raw[: struct.calcsize(INODE_FMT)])
        inode = cls(ino)
        (inode.mode, inode.uid, inode.gid, inode.nlink,
         inode.size, inode.atime, inode.mtime, inode.ctime,
         inode.nblocks) = fields[:9]
        inode.direct = list(fields[9 : 9 + DIRECT_POINTERS])
        inode.indirect = fields[9 + DIRECT_POINTERS]
        inode.xattr_block = fields[10 + DIRECT_POINTERS]
        return inode


class Ext2Geometry:
    """Derived layout numbers for a device/block-size combination."""

    def __init__(self, device_size: int, block_size: int):
        self.block_size = block_size
        self.block_count = device_size // block_size
        if self.block_count < 8:
            raise FsError(EINVAL, f"device too small for ext2: {device_size} bytes")
        self.inode_count = max(16, self.block_count // 4)
        bits_per_block = block_size * 8
        self.block_bitmap_start = 1
        self.block_bitmap_blocks = (self.block_count + bits_per_block - 1) // bits_per_block
        self.inode_bitmap_start = self.block_bitmap_start + self.block_bitmap_blocks
        self.inode_bitmap_blocks = (self.inode_count + bits_per_block - 1) // bits_per_block
        self.inode_table_start = self.inode_bitmap_start + self.inode_bitmap_blocks
        inodes_per_block = block_size // INODE_SIZE
        self.inode_table_blocks = (self.inode_count + inodes_per_block - 1) // inodes_per_block
        self.first_data_block = self.inode_table_start + self.inode_table_blocks
        if self.first_data_block >= self.block_count:
            raise FsError(EINVAL, "device too small to hold ext2 metadata")
        self.inodes_per_block = inodes_per_block




class MountedExt2(MountedBlockFileSystem):
    """A live SimExt2 instance: buffer cache + in-memory metadata."""

    ROOT_INO = ROOT_INO
    MAGIC = MAGIC
    LABEL = "SimExt2"
    INODE_CLASS = Ext2Inode
    INODE_SIZE = INODE_SIZE
    #: a write keeps one block back for the indirect block it may need
    WRITE_RESERVE = 1

    def __init__(self, device, block_size: int, cache: Optional[BufferCache] = None):
        if cache is None:
            cache = BufferCache(device, block_size)
        super_raw = cache.read_block(0)
        magic, version, sb_block_size, blocks, inodes, first_data, generation = (
            struct.unpack(SUPER_FMT, super_raw[:SUPER_SIZE])
        )
        if magic != self.MAGIC:
            raise FsError(EINVAL, f"not a {self.LABEL} file system (magic {magic!r})")
        if sb_block_size != block_size:
            raise FsError(EINVAL, f"superblock says block size {sb_block_size}, mounted with {block_size}")
        geometry = self._geometry(device.size_bytes, block_size)
        self._check_super_geometry(geometry, blocks, inodes, first_data)
        self._recover(cache, geometry)
        block_bitmap, inode_bitmap = self._read_bitmaps(cache, geometry)
        self._init_raw(device, cache, geometry, block_bitmap, inode_bitmap)
        self.generation = generation

    def _geometry(self, device_size: int, block_size: int) -> Ext2Geometry:
        return Ext2Geometry(device_size, block_size)

    def _recover(self, cache: BufferCache, geo: Ext2Geometry) -> None:
        """Make the on-disk metadata trustworthy before it is read; ext2
        has no journal to replay."""

    def _init_raw(self, device, cache, geometry, block_bitmap, inode_bitmap) -> None:
        self._init_common(device, cache, geometry, block_bitmap)
        self.inode_bitmap = inode_bitmap

    @classmethod
    def _mkfs(cls, device, cache: BufferCache, geometry: Ext2Geometry) -> None:
        """Format the device: zeroed metadata, root and ``lost+found``."""
        for block in range(geometry.block_count):
            cache.write_block(block, b"")
        block_bitmap = Bitmap(geometry.block_count)
        inode_bitmap = Bitmap(geometry.inode_count)
        for block in range(geometry.first_data_block):
            block_bitmap.set(block)
        inode_bitmap.set(0)  # ino 1, reserved

        now = device.clock.now
        fs = cls.__new__(cls)
        fs._init_raw(device, cache, geometry, block_bitmap, inode_bitmap)
        fs.inode_bitmap.set(ROOT_INO - 1)
        root = fs._new_inode(ROOT_INO)
        root.mode = S_IFDIR | 0o755
        root.nlink = 2
        root.atime = root.mtime = root.ctime = now
        fs._write_dir_entries(root, [(ROOT_INO, DT_DIR, "."), (ROOT_INO, DT_DIR, "..")])
        fs._store_inode(root)
        # lost+found, like real mke2fs
        lf_ino = fs._allocate_inode()
        lf = fs._load_inode(lf_ino)
        lf.mode = S_IFDIR | 0o700
        lf.nlink = 2
        lf.atime = lf.mtime = lf.ctime = now
        fs._write_dir_entries(lf, [(lf_ino, DT_DIR, "."), (ROOT_INO, DT_DIR, "..")])
        fs._store_inode(lf)
        fs._dir_add_entry(root, "lost+found", lf_ino, DT_DIR)
        root.nlink += 1
        fs._store_inode(root)
        fs.sync()

    @staticmethod
    def _check_super_geometry(geo: Ext2Geometry, blocks: int, inodes: int,
                              first_data: int) -> None:
        """Refuse to mount when the superblock describes a layout the device
        cannot hold (e.g. a truncated image): the bitmap and inode-table
        reads below would otherwise run off the end of the device."""
        if (blocks, inodes, first_data) != (
            geo.block_count, geo.inode_count, geo.first_data_block
        ):
            raise FsError(
                EINVAL,
                f"superblock geometry ({blocks} blocks, {inodes} inodes, "
                f"first data block {first_data}) does not match the device "
                f"({geo.block_count} blocks, {geo.inode_count} inodes, "
                f"first data block {geo.first_data_block}); truncated image?",
            )

    @staticmethod
    def _read_bitmaps(cache: BufferCache, geo: Ext2Geometry) -> Tuple[Bitmap, Bitmap]:
        raw = read_region(cache, geo.block_bitmap_start, geo.block_bitmap_blocks)
        block_bitmap = Bitmap.from_bytes(raw, geo.block_count)
        raw = read_region(cache, geo.inode_bitmap_start, geo.inode_bitmap_blocks)
        return block_bitmap, Bitmap.from_bytes(raw, geo.inode_count)

    def _write_super(self, generation: int) -> None:
        raw = struct.pack(
            SUPER_FMT, self.MAGIC, 1, self.geo.block_size,
            self.geo.block_count, self.geo.inode_count,
            self.geo.first_data_block, generation,
        )
        self.cache.write_block(0, raw)

    def _write_tables(self) -> None:
        geo = self.geo
        self._write_region(geo.block_bitmap_start, geo.block_bitmap_blocks,
                           self.block_bitmap.to_bytes())
        self._write_region(geo.inode_bitmap_start, geo.inode_bitmap_blocks,
                           self.inode_bitmap.to_bytes())

    # ------------------------------------------------------- inode management --
    def _inode_location(self, ino: int) -> Tuple[int, int]:
        if not 1 <= ino <= self.geo.inode_count:
            raise FsError(EINVAL, f"inode {ino} out of range")
        index = ino - 1
        block = self.geo.inode_table_start + index // self.geo.inodes_per_block
        offset = (index % self.geo.inodes_per_block) * INODE_SIZE
        return block, offset

    def _allocate_inode(self) -> int:
        index = self.inode_bitmap.allocate(start=FIRST_FREE_INO - 1)
        if index is None:
            raise FsError(ENOSPC, "out of inodes")
        return self._new_inode(index + 1).ino

    def _release_inode(self, ino: int) -> None:
        self.inode_bitmap.clear(ino - 1)

    def _inode_allocated(self, ino: int) -> bool:
        return 1 <= ino <= self.geo.inode_count and self.inode_bitmap.get(ino - 1)

    # ------------------------------------------------------------- block map --
    @property
    def _pointers_per_block(self) -> int:
        return self.geo.block_size // 4

    @property
    def max_file_blocks(self) -> int:
        return DIRECT_POINTERS + self._pointers_per_block

    @property
    def max_file_bytes(self) -> int:
        return self.max_file_blocks * self.geo.block_size

    def _count_xattr_block(self, inode: Ext2Inode, delta: int) -> None:
        inode.nblocks += delta

    def _read_indirect(self, block: int) -> List[int]:
        raw = self.cache.read_block(block)
        return list(struct.unpack(f"<{self._pointers_per_block}I", raw[: self._pointers_per_block * 4]))

    def _write_indirect(self, block: int, pointers: List[int]) -> None:
        self.cache.write_block(block, struct.pack(f"<{self._pointers_per_block}I", *pointers))

    def _get_file_block(self, inode: Ext2Inode, file_block: int) -> int:
        """Return the device block backing file block ``file_block`` (0 = hole)."""
        if file_block < DIRECT_POINTERS:
            return inode.direct[file_block]
        index = file_block - DIRECT_POINTERS
        if index >= self._pointers_per_block or not inode.indirect:
            return 0
        return self._read_indirect(inode.indirect)[index]

    def _set_file_block(self, inode: Ext2Inode, file_block: int, device_block: int) -> None:
        if file_block < DIRECT_POINTERS:
            inode.direct[file_block] = device_block
            return
        index = file_block - DIRECT_POINTERS
        if index >= self._pointers_per_block:
            raise FsError(EFBIG, f"file block {file_block} beyond maximum")
        if not inode.indirect:
            inode.indirect = self._allocate_block()
            inode.nblocks += 1
        pointers = self._read_indirect(inode.indirect)
        pointers[index] = device_block
        self._write_indirect(inode.indirect, pointers)

    def _ensure_file_block(self, inode: Ext2Inode, file_block: int) -> int:
        block = self._get_file_block(inode, file_block)
        if block == 0:
            if file_block >= self.max_file_blocks:
                raise FsError(EFBIG, f"file block {file_block} beyond maximum")
            block = self._allocate_block()
            inode.nblocks += 1
            self._set_file_block(inode, file_block, block)
        return block

    def _truncate_data(self, inode: Ext2Inode, size: int) -> None:
        bs = self.geo.block_size
        if size > self.max_file_bytes:
            raise FsError(EFBIG, "truncate past maximum file size")
        old_size = inode.size
        if size < old_size:
            keep_blocks = (size + bs - 1) // bs
            total_blocks = (old_size + bs - 1) // bs
            for file_block in range(keep_blocks, total_blocks):
                device_block = self._get_file_block(inode, file_block)
                if device_block:
                    self._free_block(device_block)
                    self._set_file_block(inode, file_block, 0)
                    inode.nblocks -= 1
            if inode.indirect and keep_blocks <= DIRECT_POINTERS:
                self._free_block(inode.indirect)
                inode.indirect = 0
                inode.nblocks -= 1
            self._zero_tail(inode, size)
        inode.size = size

    def _free_all_data(self, inode: Ext2Inode) -> None:
        self._truncate_data(inode, 0)

    def _mapped_blocks(self, inode: Ext2Inode) -> Iterator[int]:
        yield from (block for block in inode.direct if block)
        if inode.xattr_block:
            yield inode.xattr_block
        if inode.indirect:
            yield inode.indirect
            yield from (block for block in self._read_indirect(inode.indirect) if block)

    # ------------------------------------------------------------ directories --
    def _dir_stream_length(self, inode: Ext2Inode) -> int:
        return inode.size

    def _write_dir_entries(self, inode: Ext2Inode, entries: List[Tuple[int, int, str]]) -> None:
        data = b"".join(pack_dirent(ino, dtype, name) for ino, dtype, name in entries)
        bs = self.geo.block_size
        old_blocks = (inode.size + bs - 1) // bs
        self._write_data(inode, 0, data)
        # ext2 semantics: directory size is always a whole number of blocks
        used_blocks = max(1, (len(data) + bs - 1) // bs)
        if used_blocks < old_blocks:
            self._truncate_data(inode, used_blocks * bs)
        inode.size = used_blocks * bs
        # zero the slack after the last entry so stale entries don't resurface
        if len(data) % bs or len(data) == 0:
            self._write_data_raw_zeroes(inode, len(data), used_blocks * bs - len(data))

    def _write_data_raw_zeroes(self, inode: Ext2Inode, offset: int, length: int) -> None:
        bs = self.geo.block_size
        position = offset
        remaining = length
        while remaining > 0:
            file_block = position // bs
            within = position % bs
            take = min(bs - within, remaining)
            device_block = self._get_file_block(inode, file_block)
            if device_block:
                raw = bytearray(self.cache.read_block(device_block))
                raw[within : within + take] = b"\x00" * take
                self.cache.write_block(device_block, bytes(raw))
            position += take
            remaining -= take

    def statfs(self) -> StatVFS:
        return StatVFS(
            block_size=self.geo.block_size,
            blocks_total=self.geo.block_count - self.geo.first_data_block,
            blocks_free=self.block_bitmap.free_count,
            files_total=self.geo.inode_count,
            files_free=self.inode_bitmap.free_count,
        )


class Ext2FileSystemType(FileSystemType):
    """mkfs + mount entry points for SimExt2."""

    name = "ext2"
    min_device_size = 64 * 1024
    special_paths = ("/lost+found",)

    def __init__(self, block_size: int = 1024,
                 cache_blocks: Optional[int] = None,
                 inode_cache_capacity: Optional[int] = None):
        self.block_size = block_size
        self.cache_blocks = cache_blocks
        self.inode_cache_capacity = inode_cache_capacity

    def _make_cache(self, device) -> BufferCache:
        if self.cache_blocks is not None:
            return BufferCache(device, self.block_size, self.cache_blocks)
        return BufferCache(device, self.block_size)

    def _apply_tuning(self, fs: MountedExt2) -> MountedExt2:
        if self.inode_cache_capacity is not None:
            fs.INODE_CACHE_CAPACITY = self.inode_cache_capacity
        return fs

    def mkfs(self, device) -> None:
        if device.size_bytes < (self.min_device_size or 0):
            raise FsError(EINVAL, f"{self.name} needs >= {self.min_device_size} bytes")
        geometry = Ext2Geometry(device.size_bytes, self.block_size)
        MountedExt2._mkfs(device, self._make_cache(device), geometry)

    def mount(self, device, kernel=None) -> MountedExt2:
        return self._apply_tuning(
            MountedExt2(device, self.block_size, cache=self._make_cache(device))
        )
