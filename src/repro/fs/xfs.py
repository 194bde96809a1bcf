"""SimXFS: an extent-based file system (the XFS analogue).

Deliberately different from the SimExt family in every way that matters
to MCFS's false-positive workarounds (section 3.4):

* **Directory sizes** are reported as the sum of the entry record sizes
  (each 8-byte aligned), not as a multiple of the block size.
* **getdents order** is name-hash order (XFS directories are B+trees keyed
  by name hash), not insertion order.
* **No special folders**: mkfs creates only the root.
* **16 MB minimum device size** (the reason the paper patched ``brd``).
* Inodes are allocated dynamically in 16-inode chunks carved out of the
  data area; an inode's number encodes its location, so there is no fixed
  inode table and no global inode limit beyond free space.
* Files map their blocks with inline extent lists (up to 16 extents of
  ``(file_start, device_start, length)``).

Like SimExt2, everything flows through a write-back buffer cache, so the
cache-incoherency corruption of section 3.2 is genuine here too.
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
from repro.util.hashing import stable_hash64

MAGIC = b"SIMXFS\x00\x00"
SUPER_FMT = "<8sIIIIIIQ"  # magic, version, block_size, blocks, chunk_index_start, chunk_index_blocks, root_ino, generation
SUPER_SIZE = struct.calcsize(SUPER_FMT)

INODE_SIZE = 256
INODES_PER_CHUNK = 16
MAX_EXTENTS = 16
INODE_FIXED_FMT = "<4IQ3d2I"  # mode, uid, gid, nlink, size, a/m/ctime, nextents, xattr block
EXTENT_FMT = "<3I"
CHUNK_ENTRY_FMT = "<IHH"  # chunk block, free mask, pad
CHUNK_ENTRY_SIZE = struct.calcsize(CHUNK_ENTRY_FMT)


def _dirent_record_size(name: str) -> int:
    """XFS-style directory entry footprint: header + name, 8-byte aligned."""
    raw = 11 + len(name.encode("utf-8", "surrogateescape"))
    return (raw + 7) & ~7


class XfsInode(InodeRecord):
    """In-memory image of one 256-byte on-disk inode record."""

    __slots__ = ("ino", "mode", "uid", "gid", "nlink", "size",
                 "atime", "mtime", "ctime", "extents", "xattr_block")

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
        # list of (file_block_start, device_block_start, block_count)
        self.extents: List[Tuple[int, int, int]] = []
        self.xattr_block = 0

    def pack(self) -> bytes:
        raw = struct.pack(
            INODE_FIXED_FMT, self.mode, self.uid, self.gid, self.nlink,
            self.size, self.atime, self.mtime, self.ctime, len(self.extents),
            self.xattr_block,
        )
        for extent in self.extents:
            raw += struct.pack(EXTENT_FMT, *extent)
        return raw + b"\x00" * (INODE_SIZE - len(raw))

    @classmethod
    def unpack(cls, ino: int, raw: bytes) -> "XfsInode":
        fixed = struct.calcsize(INODE_FIXED_FMT)
        fields = struct.unpack(INODE_FIXED_FMT, raw[:fixed])
        inode = cls(ino)
        (inode.mode, inode.uid, inode.gid, inode.nlink,
         inode.size, inode.atime, inode.mtime, inode.ctime, nextents,
         inode.xattr_block) = fields
        offset = fixed
        for _ in range(nextents):
            inode.extents.append(struct.unpack(EXTENT_FMT, raw[offset : offset + 12]))
            offset += 12
        return inode

    @property
    def nblocks(self) -> int:
        return sum(count for _, _, count in self.extents)


class XfsGeometry:
    def __init__(self, device_size: int, block_size: int):
        self.block_size = block_size
        self.block_count = device_size // block_size
        bits_per_block = block_size * 8
        self.bitmap_start = 1
        self.bitmap_blocks = (self.block_count + bits_per_block - 1) // bits_per_block
        self.chunk_index_start = self.bitmap_start + self.bitmap_blocks
        self.chunk_index_blocks = 4
        self.first_data_block = self.chunk_index_start + self.chunk_index_blocks
        if self.first_data_block + 4 >= self.block_count:
            raise FsError(EINVAL, "device too small for SimXFS")


class XfsFileSystemType(FileSystemType):
    """mkfs + mount entry points for SimXFS."""

    name = "xfs"
    min_device_size = 16 * 1024 * 1024  # the paper's XFS minimum
    special_paths = ()

    def __init__(self, block_size: int = 4096):
        self.block_size = block_size

    def mkfs(self, device) -> None:
        if device.size_bytes < self.min_device_size:
            raise FsError(
                EINVAL,
                f"xfs needs a device of at least {self.min_device_size} bytes, "
                f"got {device.size_bytes}",
            )
        geometry = XfsGeometry(device.size_bytes, self.block_size)
        cache = BufferCache(device, self.block_size)
        for block in range(geometry.first_data_block):
            cache.write_block(block, b"")
        block_bitmap = Bitmap(geometry.block_count)
        for block in range(geometry.first_data_block):
            block_bitmap.set(block)

        fs = MountedXfs.__new__(MountedXfs)
        fs._init_raw(device, cache, geometry, block_bitmap, chunks=[], root_ino=0)
        root_ino = fs._allocate_inode()
        root = fs._load_inode(root_ino)
        root.mode = S_IFDIR | 0o755
        root.nlink = 2
        now = device.clock.now
        root.atime = root.mtime = root.ctime = now
        fs._write_dir_entries(root, [(root_ino, DT_DIR, "."), (root_ino, DT_DIR, "..")])
        fs._store_inode(root)
        fs.root_ino = root_ino
        fs.sync()

    def mount(self, device, kernel=None) -> "MountedXfs":
        return MountedXfs(device, self.block_size)


class MountedXfs(MountedBlockFileSystem):
    """A live SimXFS instance."""

    INODE_CLASS = XfsInode
    INODE_SIZE = INODE_SIZE

    def __init__(self, device, block_size: int):
        cache = BufferCache(device, block_size)
        raw = cache.read_block(0)
        magic, version, sb_bs, blocks, ci_start, ci_blocks, root_ino, generation = (
            struct.unpack(SUPER_FMT, raw[:SUPER_SIZE])
        )
        if magic != MAGIC:
            raise FsError(EINVAL, f"not a SimXFS file system (magic {magic!r})")
        if sb_bs != block_size:
            raise FsError(EINVAL, f"superblock block size {sb_bs} != {block_size}")
        geometry = XfsGeometry(device.size_bytes, block_size)
        bits = read_region(cache, geometry.bitmap_start, geometry.bitmap_blocks)
        block_bitmap = Bitmap.from_bytes(bits, geometry.block_count)
        chunks = self._read_chunk_index(cache, geometry)
        self._init_raw(device, cache, geometry, block_bitmap, chunks, root_ino)
        self.generation = generation

    def _init_raw(self, device, cache, geometry, block_bitmap, chunks, root_ino) -> None:
        self._init_common(device, cache, geometry, block_bitmap)
        # chunks: list of [chunk_block, free_mask] (mask bit set = slot free)
        self.chunks: List[List[int]] = [list(chunk) for chunk in chunks]
        self.root_ino = root_ino

    @property
    def ROOT_INO(self) -> int:  # type: ignore[override]
        return self.root_ino

    @property
    def max_file_bytes(self) -> int:
        """Extent starts are u32 file-block numbers."""
        return (1 << 32) * self.geo.block_size

    def _write_super(self, generation: int) -> None:
        raw = struct.pack(
            SUPER_FMT, MAGIC, 1, self.geo.block_size, self.geo.block_count,
            self.geo.chunk_index_start, self.geo.chunk_index_blocks,
            self.root_ino, generation,
        )
        self.cache.write_block(0, raw)

    def _write_tables(self) -> None:
        geo = self.geo
        self._write_region(geo.bitmap_start, geo.bitmap_blocks,
                           self.block_bitmap.to_bytes())
        self._write_region(geo.chunk_index_start, geo.chunk_index_blocks, b"".join(
            struct.pack(CHUNK_ENTRY_FMT, block, mask, 0)
            for block, mask in self.chunks
        ))

    # ------------------------------------------------------------ chunk index --
    @staticmethod
    def _read_chunk_index(cache: BufferCache, geo: XfsGeometry) -> List[Tuple[int, int]]:
        chunks: List[Tuple[int, int]] = []
        for i in range(geo.chunk_index_blocks):
            raw = cache.read_block(geo.chunk_index_start + i)
            for offset in range(0, geo.block_size, CHUNK_ENTRY_SIZE):
                block, mask, _pad = struct.unpack(
                    CHUNK_ENTRY_FMT, raw[offset : offset + CHUNK_ENTRY_SIZE]
                )
                if block == 0:
                    return chunks
                chunks.append((block, mask))
        return chunks

    # ------------------------------------------------------- inode management --
    def _ino_location(self, ino: int) -> Tuple[int, int]:
        """Decode an inode number into (chunk block, slot)."""
        return divmod(ino - 1, INODES_PER_CHUNK)

    def _make_ino(self, chunk_block: int, slot: int) -> int:
        return chunk_block * INODES_PER_CHUNK + slot + 1

    def _inode_location(self, ino: int) -> Tuple[int, int]:
        chunk_block, slot = self._ino_location(ino)
        if not 0 < chunk_block < self.geo.block_count:
            raise FsError(EINVAL, f"inode {ino} decodes to bad block {chunk_block}")
        return chunk_block, slot * INODE_SIZE

    def _chunk_of(self, ino: int) -> Tuple[Optional[List[int]], int]:
        """The chunk-index entry holding ``ino`` (None if none) and its slot."""
        chunk_block, slot = self._ino_location(ino)
        for chunk in self.chunks:
            if chunk[0] == chunk_block:
                return chunk, slot
        return None, slot

    def _allocate_inode(self) -> int:
        chunk = next((chunk for chunk in self.chunks if chunk[1]), None)
        if chunk is None:
            # All chunks full: carve a new chunk out of the data area.
            if len(self.chunks) * CHUNK_ENTRY_SIZE >= self.geo.chunk_index_blocks * self.geo.block_size:
                raise FsError(ENOSPC, "inode chunk index full")
            chunk = [self._allocate_block(), (1 << INODES_PER_CHUNK) - 1]
            self.chunks.append(chunk)
        slot = (chunk[1] & -chunk[1]).bit_length() - 1
        chunk[1] &= ~(1 << slot)
        return self._new_inode(self._make_ino(chunk[0], slot)).ino

    def _release_inode(self, ino: int) -> None:
        chunk, slot = self._chunk_of(ino)
        if chunk is not None:
            chunk[1] |= 1 << slot

    def _inode_allocated(self, ino: int) -> bool:
        chunk, slot = self._chunk_of(ino)
        return chunk is not None and not chunk[1] & (1 << slot)

    # --------------------------------------------------------- extent mapping --
    def _get_file_block(self, inode: XfsInode, file_block: int) -> int:
        for start, device_start, count in inode.extents:
            if start <= file_block < start + count:
                return device_start + (file_block - start)
        return 0

    def _map_block(self, inode: XfsInode, file_block: int, device_block: int) -> None:
        """Insert a mapping, merging with an adjacent extent when possible."""
        for index, (start, dev, count) in enumerate(inode.extents):
            if start + count == file_block and dev + count == device_block:
                inode.extents[index] = (start, dev, count + 1)
                return
            if file_block + 1 == start and device_block + 1 == dev:
                inode.extents[index] = (file_block, device_block, count + 1)
                return
        if len(inode.extents) >= MAX_EXTENTS:
            raise FsError(EFBIG, f"inode {inode.ino}: too many extents")
        inode.extents.append((file_block, device_block, 1))
        inode.extents.sort()

    def _unmap_from(self, inode: XfsInode, first_freed_block: int) -> None:
        """Drop (and free) all mappings at or beyond ``first_freed_block``."""
        kept: List[Tuple[int, int, int]] = []
        for start, dev, count in inode.extents:
            if start + count <= first_freed_block:
                kept.append((start, dev, count))
            elif start >= first_freed_block:
                for offset in range(count):
                    self._free_block(dev + offset)
            else:
                keep = first_freed_block - start
                kept.append((start, dev, keep))
                for offset in range(keep, count):
                    self._free_block(dev + offset)
        inode.extents = kept

    def _ensure_file_block(self, inode: XfsInode, file_block: int) -> int:
        block = self._get_file_block(inode, file_block)
        if block == 0:
            block = self._allocate_block()
            try:
                self._map_block(inode, file_block, block)
            except FsError:
                self._free_block(block)
                raise
        return block

    def _truncate_data(self, inode: XfsInode, size: int) -> None:
        if size < inode.size:
            bs = self.geo.block_size
            self._unmap_from(inode, (size + bs - 1) // bs)
            self._zero_tail(inode, size)
        inode.size = size

    def _free_all_data(self, inode: XfsInode) -> None:
        self._unmap_from(inode, 0)

    def _mapped_blocks(self, inode: XfsInode) -> Iterator[int]:
        for _start, device_start, count in inode.extents:
            yield from range(device_start, device_start + count)
        if inode.xattr_block:
            yield inode.xattr_block

    # ------------------------------------------------------------ directories --
    def _dir_stream_length(self, inode: XfsInode) -> int:
        # The packed stream length is bounded by the allocated blocks.
        return inode.nblocks * self.geo.block_size

    def _write_dir_entries(self, inode: XfsInode, entries: List[Tuple[int, int, str]]) -> None:
        # XFS directories are hash-ordered B+trees: keep the on-disk stream
        # sorted by name hash ("." and ".." pinned first, like real XFS
        # leaf formats keep them in the header).
        def sort_key(entry):
            _, _, name = entry
            if name == ".":
                return (0, 0)
            if name == "..":
                return (1, 0)
            return (2, stable_hash64(name))

        ordered = sorted(entries, key=sort_key)
        data = b"".join(pack_dirent(ino, dtype, name) for ino, dtype, name in ordered)
        old_blocks = inode.nblocks
        bs = self.geo.block_size
        if data:
            self._write_data(inode, 0, data)
        used_blocks = max(1, (len(data) + bs - 1) // bs)
        if used_blocks < old_blocks:
            self._unmap_from(inode, used_blocks)
        # zero slack so stale entries never resurface
        slack = used_blocks * bs - len(data)
        if slack:
            within = len(data) % bs
            device_block = self._ensure_file_block(inode, used_blocks - 1)
            raw = bytearray(self.cache.read_block(device_block))
            raw[within:] = b"\x00" * (bs - within)
            self.cache.write_block(device_block, bytes(raw))
        # XFS-style size: the sum of aligned entry record sizes.
        inode.size = sum(_dirent_record_size(name) for _, _, name in ordered)

    def statfs(self) -> StatVFS:
        # XFS has no static inode limit: report inode headroom in terms of
        # what free space could hold.
        free_blocks = self.block_bitmap.free_count
        return StatVFS(
            block_size=self.geo.block_size,
            blocks_total=self.geo.block_count - self.geo.first_data_block,
            blocks_free=free_blocks,
            files_total=(self.geo.block_count - self.geo.first_data_block) * INODES_PER_CHUNK,
            files_free=free_blocks * INODES_PER_CHUNK
            + sum(bin(chunk[1]).count("1") for chunk in self.chunks),
        )
