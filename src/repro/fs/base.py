"""Shared infrastructure for the block file systems.

Two pieces live here.  :class:`MountedBlockFileSystem` is the POSIX layer
ext2/ext4 and xfs share: the inode cache, block allocation, the data
read/write path, directory-entry updates and every namespace operation,
written once over a small set of on-disk-format primitives each file
system supplies (see the class docstring).

The other is :class:`BufferCache`, a write-back block cache every
block file system routes its I/O through.  It is what makes the paper's
cache-incoherency phenomenon *genuine* in this reproduction: if a model
checker restores the device image while a file system is mounted, the
driver keeps reading (and later flushing!) stale cached blocks, and the
on-disk state ends up a corrupt hybrid of two histories -- the
"directory entries with corrupted or zeroed inodes" of section 3.2.
Unmounting flushes and drops the cache; remounting reloads everything
from disk, which is why the remount-per-operation workaround restores
coherency at such a heavy cost.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import (EEXIST, EFBIG, EINVAL, EIO, EISDIR, ENODATA, ENOENT,
                          ENOSPC, ENOTDIR, ENOTEMPTY, ERANGE, FsError)
from repro.kernel.stat import (DT_DIR, DT_LNK, DT_REG, XATTR_CREATE,
                               XATTR_REPLACE, Dirent, S_IFDIR, S_IFLNK, S_IFMT,
                               S_IFREG, StatResult, mode_to_dtype)
from repro.kernel.vfs import MountedFileSystem
from repro.storage.device import BlockDevice

#: default number of cached blocks; small enough that real workloads
#: evict, which is what exposes mixed-history corruption when the disk
#: is restored underneath a live mount.
DEFAULT_CACHE_BLOCKS = 64


@dataclass
class BufferCacheStats:
    hits: int = 0
    misses: int = 0
    flushes: int = 0
    write_backs: int = 0
    evictions: int = 0


class BufferCache:
    """A bounded, LRU, write-back block cache between an fs and its device.

    Bounded capacity matters: after an under-the-mount disk restore, the
    still-cached blocks describe the *old* history while evicted blocks
    re-read the *restored* history -- the mix is precisely how section
    3.2's "directory entries with corrupted or zeroed inodes" arise.
    """

    def __init__(self, device: BlockDevice, block_size: int,
                 capacity_blocks: int = DEFAULT_CACHE_BLOCKS):
        if block_size % device.sector_size != 0:
            raise ValueError(
                f"block size {block_size} not a multiple of sector size "
                f"{device.sector_size}"
            )
        self.device = device
        self.block_size = block_size
        self.block_count = device.size_bytes // block_size
        self.capacity_blocks = capacity_blocks
        self._cache: "OrderedDict[int, bytearray]" = OrderedDict()
        self._dirty: Set[int] = set()
        self.stats = BufferCacheStats()

    def read_block(self, index: int) -> bytes:
        """Read a block through the cache."""
        self._check(index)
        cached = self._cache.get(index)
        if cached is not None:
            self.stats.hits += 1
            self._cache.move_to_end(index)
            return bytes(cached)
        self.stats.misses += 1
        data = self.device.read_block(index, self.block_size)
        self._insert(index, bytearray(data))
        return data

    def write_block(self, index: int, data: bytes) -> None:
        """Write a block into the cache (flushed later)."""
        self._check(index)
        if len(data) > self.block_size:
            raise FsError(EIO, f"write of {len(data)} bytes into {self.block_size}-byte block")
        if len(data) < self.block_size:
            data = data + b"\x00" * (self.block_size - len(data))
        self._insert(index, bytearray(data))
        self._dirty.add(index)

    def _insert(self, index: int, data: bytearray) -> None:
        self._cache[index] = data
        self._cache.move_to_end(index)
        while len(self._cache) > self.capacity_blocks:
            victim, victim_data = self._cache.popitem(last=False)
            self.stats.evictions += 1
            if victim in self._dirty:
                # write-back on eviction
                self.device.write_block(victim, self.block_size, bytes(victim_data))
                self._dirty.discard(victim)
                self.stats.write_backs += 1

    def flush(self) -> None:
        """Write every dirty block back to the device."""
        for index in sorted(self._dirty):
            self.device.write_block(index, self.block_size, bytes(self._cache[index]))
            self.stats.write_backs += 1
        self._dirty.clear()
        self.stats.flushes += 1

    def drop(self) -> None:
        """Discard all cached blocks *without* flushing (unmount does
        flush-then-drop; a crash simulation would drop alone)."""
        self._cache.clear()
        self._dirty.clear()

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    @property
    def cached_count(self) -> int:
        return len(self._cache)

    def _check(self, index: int) -> None:
        if not 0 <= index < self.block_count:
            raise FsError(EIO, f"block {index} outside device ({self.block_count} blocks)")


def pack_xattrs(xattrs) -> bytes:
    """Serialise an xattr dict: (u8 keylen, u16 vallen, key, value)*, 0-end."""
    chunks = []
    for key in sorted(xattrs):
        raw_key = key.encode("utf-8")
        value = xattrs[key]
        if len(raw_key) > 255 or len(value) > 0xFFFF:
            raise ValueError(f"xattr too large: {key!r}")
        chunks.append(bytes([len(raw_key)]))
        chunks.append(len(value).to_bytes(2, "little"))
        chunks.append(raw_key)
        chunks.append(bytes(value))
    chunks.append(b"\x00")
    return b"".join(chunks)


def unpack_xattrs(data: bytes):
    """Parse a serialised xattr stream back into a dict."""
    xattrs = {}
    pos = 0
    while pos < len(data):
        key_length = data[pos]
        if key_length == 0:
            break
        value_length = int.from_bytes(data[pos + 1 : pos + 3], "little")
        key = data[pos + 3 : pos + 3 + key_length].decode("utf-8")
        start = pos + 3 + key_length
        xattrs[key] = bytes(data[start : start + value_length])
        pos = start + value_length
    return xattrs


def pack_dirent(ino: int, dtype: int, name: str) -> bytes:
    """Serialise one on-disk directory entry (shared ext-style format)."""
    raw = name.encode("utf-8")
    if len(raw) > 255:
        raise ValueError(f"name too long: {len(raw)} bytes")
    return ino.to_bytes(4, "little") + bytes([dtype, len(raw)]) + raw


def unpack_dirents(data: bytes):
    """Parse a serialised directory stream into (ino, dtype, name) tuples.

    The stream is terminated by a zero inode number (or end of data).
    Name bytes that are not UTF-8 decode as lone surrogates
    (``surrogateescape``), so a corrupt name can be reported, not crash
    the reader.
    """
    entries = []
    pos = 0
    while pos + 6 <= len(data):
        ino = int.from_bytes(data[pos : pos + 4], "little")
        if ino == 0:
            break
        dtype = data[pos + 4]
        name_len = data[pos + 5]
        name = data[pos + 6 : pos + 6 + name_len].decode("utf-8", "surrogateescape")
        entries.append((ino, dtype, name))
        pos += 6 + name_len
    return entries


def read_region(cache: BufferCache, start: int, count: int) -> bytes:
    """Read blocks ``start .. start+count`` as one byte string."""
    return b"".join(cache.read_block(start + i) for i in range(count))


class InodeRecord:
    """File-type predicates of a block format's in-memory inode record."""

    __slots__ = ()

    @property
    def is_dir(self) -> bool:
        return (self.mode & S_IFMT) == S_IFDIR

    @property
    def is_symlink(self) -> bool:
        return (self.mode & S_IFMT) == S_IFLNK


def check_name(name: str) -> None:
    """Reject a directory-entry name no file system here accepts."""
    if not name or name in (".", "..") or "/" in name:
        raise FsError(EINVAL, f"bad name {name!r}")
    if len(name.encode("utf-8")) > 255:
        raise FsError(EINVAL, "name too long")


class MountedBlockFileSystem(MountedFileSystem):
    """The POSIX layer of a block file system, over its on-disk format.

    Everything above the on-disk format lives here: sync/unmount, the
    bounded inode cache, block allocation from ``block_bitmap``, the data
    read/write path, directory-entry updates and the namespace and xattr
    operations.  A subclass supplies only the format:

    * ``INODE_CLASS`` and ``INODE_SIZE``: the in-memory inode record, with
      ``pack``/``unpack``, ``mode``/``nlink``/``size``/times, ``nblocks``,
      ``xattr_block`` and ``is_dir``/``is_symlink``;
    * ``_inode_location(ino)`` -> ``(block, byte offset)`` of the record,
      raising EINVAL for an ino the format cannot hold;
      ``_allocate_inode()``, ``_release_inode(ino)`` and
      ``_inode_allocated(ino)``;
    * the block map: ``_get_file_block`` (0 for a hole),
      ``_ensure_file_block``, ``_truncate_data``, ``_free_all_data``,
      ``_mapped_blocks`` (every block an inode holds) and
      ``max_file_bytes``;
    * the directory stream: ``_write_dir_entries`` (layout and reported
      size) and ``_dir_stream_length``;
    * ``_write_tables`` (the allocation tables ``sync`` writes) and
      ``_write_super``; ``statfs``.

    ``check_consistency`` is the shared fsck tree audit over these
    records, with ``_mapped_blocks`` claimed against ``block_bitmap``.

    ``WRITE_RESERVE`` is the free-block slack a write keeps back for the
    map's own blocks, ``_count_xattr_block`` whether the xattr block
    counts in ``st_blocks``, and ``_flush`` how ``sync`` reaches the device.
    """

    INODE_CLASS: type
    INODE_SIZE: int
    WRITE_RESERVE = 0

    #: in-memory inode cache capacity; bounded like the kernel's icache so
    #: that evicted inodes are re-read from disk (which is how a disk
    #: restored under a live mount manifests as zeroed-inode corruption).
    INODE_CACHE_CAPACITY = 32

    def _init_common(self, device, cache: BufferCache, geometry,
                     block_bitmap) -> None:
        self.device = device
        self.clock = device.clock
        self.cache = cache
        self.geo = geometry
        self.block_bitmap = block_bitmap
        self._inode_cache: "OrderedDict[int, object]" = OrderedDict()
        self._dirty_inodes: Set[int] = set()
        self.generation = 0
        self._alive = True

    # ------------------------------------------------------------- lifecycle --
    def sync(self) -> None:
        self._check_alive()
        for ino in sorted(self._dirty_inodes):
            self._write_inode_to_cache(self._inode_cache[ino])
        self._dirty_inodes.clear()
        self._write_tables()
        self._write_super(self.generation)
        self._flush()

    def _flush(self) -> None:
        self.cache.flush()

    def unmount(self) -> None:
        self.sync()
        self.cache.drop()
        self._inode_cache.clear()
        self._alive = False

    def _check_alive(self) -> None:
        if not self._alive:
            raise FsError(EIO, "file system is unmounted")

    def _write_region(self, start: int, count: int, raw: bytes) -> None:
        """Write ``raw`` over blocks ``start .. start+count`` (zero-padded)."""
        bs = self.geo.block_size
        for i in range(count):
            self.cache.write_block(start + i, raw[i * bs : (i + 1) * bs])

    # ------------------------------------------------------- inode management --
    def _load_inode(self, ino: int):
        self._check_alive()
        cached = self._inode_cache.get(ino)
        if cached is not None:
            self._inode_cache.move_to_end(ino)
            return cached
        block, offset = self._inode_location(ino)
        raw = self.cache.read_block(block)[offset : offset + self.INODE_SIZE]
        inode = self.INODE_CLASS.unpack(ino, raw)
        self._inode_cache[ino] = inode
        self._evict_inodes()
        return inode

    def _store_inode(self, inode) -> None:
        self._inode_cache[inode.ino] = inode
        self._inode_cache.move_to_end(inode.ino)
        self._dirty_inodes.add(inode.ino)
        self._evict_inodes()

    def _new_inode(self, ino: int):
        """Cache a blank, dirty record for a freshly allocated ``ino``."""
        inode = self.INODE_CLASS(ino)
        self._inode_cache[ino] = inode
        self._dirty_inodes.add(ino)
        return inode

    def _evict_inodes(self) -> None:
        """Shrink the inode cache (dirty victims are written back first)."""
        while len(self._inode_cache) > self.INODE_CACHE_CAPACITY:
            victim_ino = next(iter(self._inode_cache))
            victim = self._inode_cache.pop(victim_ino)
            if victim_ino in self._dirty_inodes:
                self._write_inode_to_cache(victim)
                self._dirty_inodes.discard(victim_ino)

    def _write_inode_record(self, ino: int, record: bytes) -> None:
        block, offset = self._inode_location(ino)
        raw = bytearray(self.cache.read_block(block))
        raw[offset : offset + self.INODE_SIZE] = record
        self.cache.write_block(block, bytes(raw))

    def _write_inode_to_cache(self, inode) -> None:
        self._write_inode_record(inode.ino, inode.pack())

    def _free_inode(self, ino: int) -> None:
        self._release_inode(ino)
        self._inode_cache.pop(ino, None)
        self._dirty_inodes.discard(ino)
        # zero the on-disk record so dangling dirents are detectable
        self._write_inode_record(ino, bytes(self.INODE_SIZE))

    # -------------------------------------------------------- block management --
    def _allocate_block(self) -> int:
        index = self.block_bitmap.allocate(start=self.geo.first_data_block)
        if index is None or index < self.geo.first_data_block:
            if index is not None:
                self.block_bitmap.clear(index)
            raise FsError(ENOSPC, "out of data blocks")
        self.cache.write_block(index, b"")  # fresh blocks read as zeros
        return index

    def _free_block(self, block: int) -> None:
        if block:
            self.block_bitmap.clear(block)

    # ------------------------------------------------------------- file data --
    def _read_data(self, inode, offset: int, length: int) -> bytes:
        if offset >= inode.size:
            return b""
        length = min(length, inode.size - offset)
        bs = self.geo.block_size
        chunks: List[bytes] = []
        position, remaining = offset, length
        while remaining > 0:
            file_block = position // bs
            within = position % bs
            take = min(bs - within, remaining)
            device_block = self._get_file_block(inode, file_block)
            if device_block == 0:
                chunks.append(b"\x00" * take)
            else:
                chunks.append(self.cache.read_block(device_block)[within : within + take])
            position += take
            remaining -= take
        return b"".join(chunks)

    def _write_data(self, inode, offset: int, data: bytes) -> int:
        bs = self.geo.block_size
        end = offset + len(data)
        if end > self.max_file_bytes:
            raise FsError(EFBIG, "write past maximum file size")
        # Pre-flight ENOSPC check: count blocks we would have to allocate.
        needed = sum(
            1
            for file_block in range(offset // bs, (end + bs - 1) // bs)
            if self._get_file_block(inode, file_block) == 0
        ) if data else 0
        if needed and self.block_bitmap.free_count < needed + self.WRITE_RESERVE:
            raise FsError(ENOSPC, "not enough free blocks")
        position, consumed = offset, 0
        while consumed < len(data):
            file_block = position // bs
            within = position % bs
            take = min(bs - within, len(data) - consumed)
            device_block = self._ensure_file_block(inode, file_block)
            if within == 0 and take == bs:
                self.cache.write_block(device_block, data[consumed : consumed + take])
            else:
                raw = bytearray(self.cache.read_block(device_block))
                raw[within : within + take] = data[consumed : consumed + take]
                self.cache.write_block(device_block, bytes(raw))
            position += take
            consumed += take
        if end > inode.size:
            inode.size = end
        return len(data)

    def _zero_tail(self, inode, size: int) -> None:
        """Zero the last kept block past ``size``, so a later extension
        exposes zeros, not stale data (the VeriFS1 truncate bug!)."""
        bs = self.geo.block_size
        if size % bs:
            device_block = self._get_file_block(inode, (size - 1) // bs)
            if device_block:
                raw = bytearray(self.cache.read_block(device_block))
                raw[size % bs :] = b"\x00" * (bs - size % bs)
                self.cache.write_block(device_block, bytes(raw))

    # ------------------------------------------------------------ directories --
    def _read_dir_entries(self, inode) -> List[Tuple[int, int, str]]:
        return unpack_dirents(self._read_data(inode, 0, self._dir_stream_length(inode)))

    def _dir_find(self, dir_inode, name: str) -> Optional[Tuple[int, int]]:
        for ino, dtype, entry_name in self._read_dir_entries(dir_inode):
            if entry_name == name:
                return ino, dtype
        return None

    def _dir_add_entry(self, dir_inode, name: str, ino: int, dtype: int) -> None:
        entries = self._read_dir_entries(dir_inode)
        entries.append((ino, dtype, name))
        self._write_dir_entries(dir_inode, entries)

    def _dir_insert(self, dir_ino: int, name: str, ino: int, dtype: int):
        """Add an entry to directory ``dir_ino``, reloaded by number so an
        evicted directory object is never updated; returns the directory."""
        directory = self._load_inode(dir_ino)
        self._dir_add_entry(directory, name, ino, dtype)
        directory.mtime = directory.ctime = self.clock.now
        self._store_inode(directory)
        return directory

    def _dir_remove(self, dir_ino: int, name: str):
        """Drop entry ``name`` from directory ``dir_ino``; returns it."""
        directory = self._load_inode(dir_ino)
        entries = self._read_dir_entries(directory)
        remaining = [entry for entry in entries if entry[2] != name]
        if len(remaining) == len(entries):
            raise FsError(ENOENT, name)
        self._write_dir_entries(directory, remaining)
        directory.mtime = directory.ctime = self.clock.now
        self._store_inode(directory)
        return directory

    def _require_dir(self, ino: int):
        inode = self._load_inode(ino)
        if inode.mode == 0:
            raise FsError(ENOENT, f"inode {ino} is unused")
        if not inode.is_dir:
            raise FsError(ENOTDIR, f"inode {ino}")
        return inode

    def _live_inode(self, ino: int):
        inode = self._load_inode(ino)
        if inode.mode == 0:
            raise FsError(ENOENT, f"inode {ino}")
        return inode

    def _has_children(self, dir_inode) -> bool:
        return any(e[2] not in (".", "..") for e in self._read_dir_entries(dir_inode))

    # ------------------------------------------------------------ VFS interface --
    def lookup(self, dir_ino: int, name: str) -> int:
        found = self._dir_find(self._require_dir(dir_ino), name)
        if found is None:
            raise FsError(ENOENT, name)
        return found[0]

    def getattr(self, ino: int) -> StatResult:
        inode = self._load_inode(ino)
        if inode.mode == 0:
            raise FsError(ENOENT, f"inode {ino} is unused")
        return StatResult(
            st_ino=ino, st_mode=inode.mode, st_nlink=inode.nlink,
            st_uid=inode.uid, st_gid=inode.gid, st_size=inode.size,
            st_blocks=inode.nblocks * (self.geo.block_size // 512),
            st_atime=inode.atime, st_mtime=inode.mtime, st_ctime=inode.ctime,
        )

    def getdents(self, dir_ino: int) -> List[Dirent]:
        directory = self._require_dir(dir_ino)
        directory.atime = self.clock.now
        self._store_inode(directory)
        return [
            Dirent(name=name, ino=ino, dtype=dtype)
            for ino, dtype, name in self._read_dir_entries(directory)
            if name not in (".", "..")
        ]

    def _create_common(self, dir_ino: int, name: str, mode: int, uid: int, gid: int):
        check_name(name)
        directory = self._require_dir(dir_ino)
        if self._dir_find(directory, name) is not None:
            raise FsError(EEXIST, name)
        inode = self._load_inode(self._allocate_inode())
        inode.mode = mode
        inode.uid = uid
        inode.gid = gid
        inode.atime = inode.mtime = inode.ctime = self.clock.now
        return inode

    def create(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> int:
        inode = self._create_common(dir_ino, name, S_IFREG | (mode & 0o7777), uid, gid)
        inode.nlink = 1
        self._store_inode(inode)
        self._dir_insert(dir_ino, name, inode.ino, DT_REG)
        return inode.ino

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> int:
        inode = self._create_common(dir_ino, name, S_IFDIR | (mode & 0o7777), uid, gid)
        inode.nlink = 2
        self._write_dir_entries(inode, [(inode.ino, DT_DIR, "."), (dir_ino, DT_DIR, "..")])
        self._store_inode(inode)
        directory = self._dir_insert(dir_ino, name, inode.ino, DT_DIR)
        directory.nlink += 1
        self._store_inode(directory)
        return inode.ino

    def symlink(self, dir_ino: int, name: str, target: str, uid: int, gid: int) -> int:
        inode = self._create_common(dir_ino, name, S_IFLNK | 0o777, uid, gid)
        inode.nlink = 1
        self._store_inode(inode)
        self._write_data(inode, 0, target.encode("utf-8"))
        self._store_inode(inode)
        self._dir_insert(dir_ino, name, inode.ino, DT_LNK)
        return inode.ino

    def readlink(self, ino: int) -> str:
        inode = self._load_inode(ino)
        if not inode.is_symlink:
            raise FsError(EINVAL, f"inode {ino} is not a symlink")
        return self._read_data(inode, 0, inode.size).decode("utf-8")

    def link(self, ino: int, dir_ino: int, name: str) -> None:
        check_name(name)
        inode = self._live_inode(ino)
        if inode.is_dir:
            raise FsError(EISDIR, "cannot hard-link directories")
        if self._dir_find(self._require_dir(dir_ino), name) is not None:
            raise FsError(EEXIST, name)
        self._dir_insert(dir_ino, name, ino, mode_to_dtype(inode.mode))
        inode.nlink += 1
        inode.ctime = self.clock.now
        self._store_inode(inode)

    def _find_child(self, dir_ino: int, name: str):
        found = self._dir_find(self._require_dir(dir_ino), name)
        if found is None:
            raise FsError(ENOENT, name)
        return self._load_inode(found[0])

    def unlink(self, dir_ino: int, name: str) -> None:
        inode = self._find_child(dir_ino, name)
        if inode.is_dir:
            raise FsError(EISDIR, name)
        self._dir_remove(dir_ino, name)
        inode.nlink -= 1
        inode.ctime = self.clock.now
        if inode.nlink <= 0:
            self._free_all_data(inode)
            self._drop_xattr_block(inode)
            self._free_inode(inode.ino)
        else:
            self._store_inode(inode)

    def rmdir(self, dir_ino: int, name: str) -> None:
        target = self._find_child(dir_ino, name)
        if not target.is_dir:
            raise FsError(ENOTDIR, name)
        if self._has_children(target):
            raise FsError(ENOTEMPTY, name)
        directory = self._dir_remove(dir_ino, name)
        directory.nlink -= 1
        self._store_inode(directory)
        self._free_all_data(target)
        self._drop_xattr_block(target)
        self._free_inode(target.ino)

    def _is_ancestor(self, maybe_ancestor: int, ino: int) -> bool:
        """True when directory ``maybe_ancestor`` is ``ino`` or an ancestor of it."""
        if maybe_ancestor == ino:
            return True
        current = ino
        seen = set()
        while current != self.ROOT_INO and current not in seen:
            seen.add(current)
            inode = self._load_inode(current)
            parent = next(
                (e[0] for e in self._read_dir_entries(inode) if e[2] == ".."),
                self.ROOT_INO,
            )
            if parent == maybe_ancestor:
                return True
            current = parent
        return maybe_ancestor == self.ROOT_INO and ino != self.ROOT_INO

    def rename(self, old_dir: int, old_name: str, new_dir: int, new_name: str) -> None:
        check_name(new_name)
        found = self._dir_find(self._require_dir(old_dir), old_name)
        if found is None:
            raise FsError(ENOENT, old_name)
        ino, dtype = found
        target_dir = self._require_dir(new_dir)
        moving = self._load_inode(ino)
        if moving.is_dir and old_dir != new_dir and self._is_ancestor(ino, new_dir):
            raise FsError(EINVAL, "cannot move a directory into its own subtree")
        existing = self._dir_find(target_dir, new_name)
        if existing is not None:
            existing_ino, _ = existing
            if existing_ino == ino:
                return  # renaming onto the same inode is a no-op
            victim = self._load_inode(existing_ino)
            if victim.is_dir:
                if not moving.is_dir:
                    raise FsError(EISDIR, new_name)
                if self._has_children(victim):
                    raise FsError(ENOTEMPTY, new_name)
                self.rmdir(new_dir, new_name)
            else:
                if moving.is_dir:
                    raise FsError(ENOTDIR, new_name)
                self.unlink(new_dir, new_name)
        self._dir_remove(old_dir, old_name)
        self._dir_insert(new_dir, new_name, ino, dtype)
        now = self.clock.now
        if moving.is_dir and old_dir != new_dir:
            # rewrite ".." and fix parent link counts
            entries = [
                (new_dir, DT_DIR, "..") if name == ".." else (e_ino, e_dtype, name)
                for e_ino, e_dtype, name in self._read_dir_entries(moving)
            ]
            self._write_dir_entries(moving, entries)
            source = self._load_inode(old_dir)
            source.nlink -= 1
            self._store_inode(source)
            target = self._load_inode(new_dir)
            target.nlink += 1
            self._store_inode(target)
        moving.ctime = now
        self._store_inode(moving)

    def _regular_inode(self, ino: int):
        inode = self._live_inode(ino)
        if inode.is_dir:
            raise FsError(EISDIR, f"inode {ino}")
        return inode

    def read(self, ino: int, offset: int, length: int) -> bytes:
        inode = self._regular_inode(ino)
        data = self._read_data(inode, offset, length)
        inode.atime = self.clock.now
        self._store_inode(inode)
        return data

    def write(self, ino: int, offset: int, data: bytes) -> int:
        inode = self._regular_inode(ino)
        written = self._write_data(inode, offset, data)
        inode.mtime = inode.ctime = self.clock.now
        self._store_inode(inode)
        return written

    def truncate(self, ino: int, size: int) -> None:
        inode = self._regular_inode(ino)
        self._truncate_data(inode, size)
        inode.mtime = inode.ctime = self.clock.now
        self._store_inode(inode)

    def setattr(self, ino, mode=None, uid=None, gid=None, atime=None, mtime=None):
        inode = self._live_inode(ino)
        if mode is not None:
            inode.mode = (inode.mode & S_IFMT) | (mode & 0o7777)
        if uid is not None:
            inode.uid = uid
        if gid is not None:
            inode.gid = gid
        if atime is not None:
            inode.atime = atime
        if mtime is not None:
            inode.mtime = mtime
        inode.ctime = self.clock.now
        self._store_inode(inode)
        return self.getattr(ino)

    # ---------------------------------------------------------------- xattrs --
    # One xattr block per inode (like ext2's single EA block); the inode
    # record's ``xattr_block`` holds its block number.

    def _count_xattr_block(self, inode, delta: int) -> None:
        """Account the xattr block in ``inode``'s block count (``delta`` is
        +1 on allocation, -1 on release); by default it is not counted."""

    def _load_xattrs(self, inode) -> Dict[str, bytes]:
        if not inode.xattr_block:
            return {}
        return unpack_xattrs(self.cache.read_block(inode.xattr_block))

    def _store_xattr_dict(self, inode, xattrs: Dict[str, bytes]) -> None:
        if xattrs:
            data = pack_xattrs(xattrs)
            if len(data) > self.geo.block_size:
                raise FsError(ERANGE, "xattrs exceed the xattr block")
            if not inode.xattr_block:
                inode.xattr_block = self._allocate_block()
                self._count_xattr_block(inode, 1)
            self.cache.write_block(inode.xattr_block, data)
        else:
            self._drop_xattr_block(inode)
        inode.ctime = self.clock.now
        self._store_inode(inode)

    def _drop_xattr_block(self, inode) -> None:
        if inode.xattr_block:
            self._free_block(inode.xattr_block)
            inode.xattr_block = 0
            self._count_xattr_block(inode, -1)

    def setxattr(self, ino: int, key: str, value: bytes, flags: int = 0) -> None:
        inode = self._live_inode(ino)
        xattrs = self._load_xattrs(inode)
        if flags == XATTR_CREATE and key in xattrs:
            raise FsError(EEXIST, key)
        if flags == XATTR_REPLACE and key not in xattrs:
            raise FsError(ENODATA, key)
        xattrs[key] = bytes(value)
        self._store_xattr_dict(inode, xattrs)

    def getxattr(self, ino: int, key: str) -> bytes:
        xattrs = self._load_xattrs(self._live_inode(ino))
        if key not in xattrs:
            raise FsError(ENODATA, key)
        return xattrs[key]

    def listxattr(self, ino: int) -> List[str]:
        return sorted(self._load_xattrs(self._live_inode(ino)))

    def removexattr(self, ino: int, key: str) -> None:
        inode = self._live_inode(ino)
        xattrs = self._load_xattrs(inode)
        if key not in xattrs:
            raise FsError(ENODATA, key)
        del xattrs[key]
        self._store_xattr_dict(inode, xattrs)
