"""VeriFS2: the full-featured VeriFS developed with MCFS's help (§5-6).

Adds everything VeriFS1 lacked -- rename, hard links, symbolic links,
extended attributes -- plus dynamic inode allocation, chunked file
storage, and a configurable capacity limit (``ENOSPC`` when exceeded).

The two historical VeriFS2 bugs are injectable:

* ``WRITE_HOLE_STALE`` -- a write creating a hole past EOF fails to zero
  the gap, exposing stale chunk bytes;
* ``SIZE_UPDATE_ON_CAPACITY_ONLY`` -- write updates the size only when
  the file grows beyond its chunk capacity, so in-chunk appends are
  invisible (the file looks shorter than it is).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import (
    EEXIST,
    EINVAL,
    EISDIR,
    ENODATA,
    ENOENT,
    ENOSPC,
    ENOTDIR,
    ENOTEMPTY,
    FsError,
)
from repro.kernel.stat import (
    DT_DIR,
    DT_LNK,
    DT_REG,
    XATTR_CREATE,
    XATTR_REPLACE,
    Dirent,
    S_IFDIR,
    S_IFLNK,
    S_IFMT,
    S_IFREG,
    StatResult,
    StatVFS,
    mode_to_dtype,
)
from repro.verifs.bugs import VeriFSBug
from repro.verifs.common import VeriFSBase

CHUNK_SIZE = 4096
DEFAULT_CAPACITY = 8 * 1024 * 1024


class V2Inode:
    """A dynamically allocated VeriFS2 inode with chunked data."""

    __slots__ = ("ino", "mode", "uid", "gid", "nlink", "size",
                 "atime", "mtime", "ctime", "chunks", "entries",
                 "parent", "symlink_target", "xattrs", "shared")

    def __init__(self, ino: int):
        self.ino = ino
        #: sealed into at least one ioctl snapshot; never mutate in place
        self.shared = False
        self.mode = 0
        self.uid = 0
        self.gid = 0
        self.nlink = 0
        self.size = 0
        self.atime = 0.0
        self.mtime = 0.0
        self.ctime = 0.0
        #: chunk index -> immutable bytes(CHUNK_SIZE); missing chunks read
        #: as zeros.  Immutability makes chunks shareable: the snapshot
        #: pool's deep copies keep referencing the same chunk objects, so
        #: a stack of ioctl checkpoints stores only the chunks that
        #: actually changed between them.
        self.chunks: Dict[int, bytes] = {}
        self.entries: Dict[str, int] = {}
        self.parent = 0
        self.symlink_target = ""
        self.xattrs: Dict[str, bytes] = {}

    @property
    def is_dir(self) -> bool:
        return (self.mode & S_IFMT) == S_IFDIR

    @property
    def is_symlink(self) -> bool:
        return (self.mode & S_IFMT) == S_IFLNK

    @property
    def capacity(self) -> int:
        """Bytes the existing chunks can hold (the 'buffer capacity' of
        the paper's second VeriFS2 bug)."""
        if not self.chunks:
            return 0
        return (max(self.chunks) + 1) * CHUNK_SIZE

    @property
    def used_bytes(self) -> int:
        return len(self.chunks) * CHUNK_SIZE

    def clone(self) -> "V2Inode":
        """Writable copy of a sealed inode (the copy-on-write step).

        Chunk payloads and xattr values are immutable ``bytes``, so the
        chunk/xattr *maps* are copied while their payloads stay shared
        -- exactly the structural sharing ``copy.deepcopy`` produced,
        minus its per-object dispatch cost.  The clone starts unsealed.
        """
        # bypass __init__: every slot is assigned below
        other = object.__new__(V2Inode)
        other.ino = self.ino
        other.shared = False
        other.mode = self.mode
        other.uid = self.uid
        other.gid = self.gid
        other.nlink = self.nlink
        other.size = self.size
        other.atime = self.atime
        other.mtime = self.mtime
        other.ctime = self.ctime
        other.chunks = dict(self.chunks)
        other.entries = dict(self.entries)
        other.parent = self.parent
        other.symlink_target = self.symlink_target
        other.xattrs = dict(self.xattrs)
        return other


class VeriFS2(VeriFSBase):
    """The full-featured chunked VeriFS."""

    def __init__(self, bugs=(), clock=None, capacity_bytes: int = DEFAULT_CAPACITY):
        super().__init__(bugs=bugs, clock=clock)
        self.capacity_bytes = capacity_bytes
        self.inodes: Dict[int, V2Inode] = {}
        self.next_ino = self.ROOT_INO + 1
        root = V2Inode(self.ROOT_INO)
        root.mode = S_IFDIR | 0o755
        root.nlink = 2
        root.parent = self.ROOT_INO
        root.atime = root.mtime = root.ctime = self._now()
        self.inodes[self.ROOT_INO] = root
        self._fresh.append(root)

    # ------------------------------------------------------- state capture --
    def _capture_state(self) -> Dict[str, Any]:
        return {"inodes": self.inodes, "next_ino": self.next_ino}

    def _restore_state(self, state: Dict[str, Any]) -> None:
        # Every inode in a stored snapshot is sealed, so the table can be
        # adopted as-is; the first write to any inode clones it first.
        self.inodes = state["inodes"]
        self.next_ino = state["next_ino"]
        self._fresh.clear()

    def _clone_state(self, state: Dict[str, Any]) -> Dict[str, Any]:
        # Copy-on-write checkpoint: seal the inodes touched since the
        # last checkpoint and share the rest structurally.  Only the
        # inode map itself is copied.
        self._seal_fresh()
        return {"inodes": dict(state["inodes"]),
                "next_ino": state["next_ino"]}

    # --------------------------------------------------------------- helpers --
    def _get(self, ino: int) -> V2Inode:
        inode = self.inodes.get(ino)
        if inode is None:
            raise FsError(ENOENT, f"inode {ino}")
        return inode

    def _get_dir(self, ino: int) -> V2Inode:
        inode = self._get(ino)
        if not inode.is_dir:
            raise FsError(ENOTDIR, f"inode {ino}")
        return inode

    def _alloc(self) -> V2Inode:
        inode = V2Inode(self.next_ino)
        self.next_ino += 1
        self.inodes[inode.ino] = inode
        self._fresh.append(inode)
        return inode

    def _writable(self, ino: int) -> V2Inode:
        """The inode, cloned first if a snapshot holds the current object."""
        inode = self._get(ino)
        if inode.shared:
            inode = inode.clone()
            self.inodes[ino] = inode
            self._fresh.append(inode)
        return inode

    def _total_used(self) -> int:
        return sum(inode.used_bytes for inode in self.inodes.values())

    def _check_capacity(self, extra_chunks: int) -> None:
        if self._total_used() + extra_chunks * CHUNK_SIZE > self.capacity_bytes:
            raise FsError(ENOSPC, "VeriFS2 capacity exhausted")

    # ----------------------------------------------------------- chunk I/O --
    def _read_bytes(self, inode: V2Inode, offset: int, length: int) -> bytes:
        if offset >= inode.size:
            return b""
        end = min(offset + length, inode.size)
        result = bytearray()
        position = offset
        while position < end:
            index = position // CHUNK_SIZE
            within = position % CHUNK_SIZE
            take = min(CHUNK_SIZE - within, end - position)
            chunk = inode.chunks.get(index)
            if chunk is None:
                result += b"\x00" * take
            else:
                result += chunk[within : within + take]
            position += take
        return bytes(result)

    def _write_bytes(self, inode: V2Inode, offset: int, data: bytes) -> None:
        end = offset + len(data)
        new_chunks = sum(
            1
            for index in range(offset // CHUNK_SIZE, (end + CHUNK_SIZE - 1) // CHUNK_SIZE)
            if index not in inode.chunks
        ) if data else 0
        self._check_capacity(new_chunks)
        position = offset
        consumed = 0
        while consumed < len(data):
            index = position // CHUNK_SIZE
            within = position % CHUNK_SIZE
            take = min(CHUNK_SIZE - within, len(data) - consumed)
            old = inode.chunks.get(index)
            base = old if old is not None else b"\x00" * CHUNK_SIZE
            piece = data[consumed : consumed + take]
            # copy-on-write: rebuild the chunk only when its content
            # changes, so unchanged chunks stay shared with snapshots
            if old is None or base[within : within + take] != piece:
                inode.chunks[index] = (
                    base[:within] + piece + base[within + take :]
                )
            position += take
            consumed += take

    def _zero_range(self, inode: V2Inode, start: int, end: int) -> None:
        """Zero [start, end) within existing chunks (holes are zeros anyway)."""
        position = start
        while position < end:
            index = position // CHUNK_SIZE
            within = position % CHUNK_SIZE
            take = min(CHUNK_SIZE - within, end - position)
            chunk = inode.chunks.get(index)
            zeros = b"\x00" * take
            if chunk is not None and chunk[within : within + take] != zeros:
                inode.chunks[index] = (
                    chunk[:within] + zeros + chunk[within + take :]
                )
            position += take

    # ---------------------------------------------------------- FUSE methods --
    def lookup(self, dir_ino: int, name: str) -> int:
        directory = self._get_dir(dir_ino)
        child = directory.entries.get(name)
        if child is None:
            raise FsError(ENOENT, name)
        return child

    def getattr(self, ino: int) -> StatResult:
        inode = self._get(ino)
        return StatResult(
            st_ino=ino, st_mode=inode.mode, st_nlink=inode.nlink,
            st_uid=inode.uid, st_gid=inode.gid,
            st_size=0 if inode.is_dir else inode.size,
            st_blocks=(inode.used_bytes + 511) // 512,
            st_atime=inode.atime, st_mtime=inode.mtime, st_ctime=inode.ctime,
        )

    def readdir(self, dir_ino: int) -> List[Dirent]:
        directory = self._get_dir(dir_ino)
        result = []
        for name, child_ino in directory.entries.items():
            child = self._get(child_ino)
            result.append(Dirent(name=name, ino=child_ino, dtype=mode_to_dtype(child.mode)))
        return result

    def access(self, ino: int, amode: int) -> None:
        """VeriFS2 adds access() support; the kernel enforces mode bits."""
        self._get(ino)

    def _new_child(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> V2Inode:
        self.check_name(name)
        directory = self._get_dir(dir_ino)
        if name in directory.entries:
            raise FsError(EEXIST, name)
        inode = self._alloc()
        inode.mode = mode
        inode.uid, inode.gid = uid, gid
        inode.parent = dir_ino
        inode.atime = inode.mtime = inode.ctime = self._now()
        directory = self._writable(dir_ino)
        directory.entries[name] = inode.ino
        directory.mtime = directory.ctime = self._now()
        return inode

    def create(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> int:
        inode = self._new_child(dir_ino, name, S_IFREG | (mode & 0o7777), uid, gid)
        inode.nlink = 1
        return inode.ino

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> int:
        inode = self._new_child(dir_ino, name, S_IFDIR | (mode & 0o7777), uid, gid)
        inode.nlink = 2
        self._writable(dir_ino).nlink += 1
        return inode.ino

    def symlink(self, dir_ino: int, name: str, target: str, uid: int, gid: int) -> int:
        inode = self._new_child(dir_ino, name, S_IFLNK | 0o777, uid, gid)
        inode.nlink = 1
        inode.symlink_target = target
        inode.size = len(target.encode("utf-8"))
        return inode.ino

    def readlink(self, ino: int) -> str:
        inode = self._get(ino)
        if not inode.is_symlink:
            raise FsError(EINVAL, f"inode {ino} is not a symlink")
        return inode.symlink_target

    def link(self, ino: int, dir_ino: int, name: str) -> None:
        self.check_name(name)
        inode = self._get(ino)
        if inode.is_dir:
            raise FsError(EISDIR, "cannot hard-link directories")
        directory = self._get_dir(dir_ino)
        if name in directory.entries:
            raise FsError(EEXIST, name)
        directory = self._writable(dir_ino)
        directory.entries[name] = ino
        directory.mtime = directory.ctime = self._now()
        inode = self._writable(ino)
        inode.nlink += 1
        inode.ctime = self._now()

    def unlink(self, dir_ino: int, name: str) -> None:
        directory = self._get_dir(dir_ino)
        child_ino = directory.entries.get(name)
        if child_ino is None:
            raise FsError(ENOENT, name)
        child = self._get(child_ino)
        if child.is_dir:
            raise FsError(EISDIR, name)
        directory = self._writable(dir_ino)
        del directory.entries[name]
        directory.mtime = directory.ctime = self._now()
        if child.nlink <= 1:
            # last link -- drop the inode; snapshot references are untouched
            del self.inodes[child_ino]
        else:
            child = self._writable(child_ino)
            child.nlink -= 1
            child.ctime = self._now()

    def rmdir(self, dir_ino: int, name: str) -> None:
        directory = self._get_dir(dir_ino)
        child_ino = directory.entries.get(name)
        if child_ino is None:
            raise FsError(ENOENT, name)
        child = self._get(child_ino)
        if not child.is_dir:
            raise FsError(ENOTDIR, name)
        if child.entries:
            raise FsError(ENOTEMPTY, name)
        directory = self._writable(dir_ino)
        del directory.entries[name]
        directory.nlink -= 1
        directory.mtime = directory.ctime = self._now()
        del self.inodes[child_ino]

    def _is_ancestor(self, maybe_ancestor: int, ino: int) -> bool:
        if maybe_ancestor == ino:
            return True
        current = ino
        seen = set()
        while current != self.ROOT_INO and current not in seen:
            seen.add(current)
            current = self._get(current).parent
            if current == maybe_ancestor:
                return True
        return False

    def rename(self, old_dir: int, old_name: str, new_dir: int, new_name: str) -> None:
        self.check_name(new_name)
        source = self._get_dir(old_dir)
        target = self._get_dir(new_dir)
        child_ino = source.entries.get(old_name)
        if child_ino is None:
            raise FsError(ENOENT, old_name)
        moving = self._get(child_ino)
        if moving.is_dir and old_dir != new_dir and self._is_ancestor(child_ino, new_dir):
            raise FsError(EINVAL, "cannot move a directory into its own subtree")
        existing_ino = target.entries.get(new_name)
        if existing_ino is not None:
            if existing_ino == child_ino:
                return
            victim = self._get(existing_ino)
            if victim.is_dir:
                if not moving.is_dir:
                    raise FsError(EISDIR, new_name)
                if victim.entries:
                    raise FsError(ENOTEMPTY, new_name)
                self.rmdir(new_dir, new_name)
            else:
                if moving.is_dir:
                    raise FsError(ENOTDIR, new_name)
                self.unlink(new_dir, new_name)
        # re-fetch writable objects: removing the victim may have cloned
        # the target directory, and the checks above must not clone
        source = self._writable(old_dir)
        target = self._writable(new_dir)
        moving = self._writable(child_ino)
        del source.entries[old_name]
        target.entries[new_name] = child_ino
        now = self._now()
        if moving.is_dir and old_dir != new_dir:
            moving.parent = new_dir
            source.nlink -= 1
            target.nlink += 1
        source.mtime = source.ctime = now
        target.mtime = target.ctime = now
        moving.ctime = now

    def read(self, ino: int, offset: int, length: int) -> bytes:
        inode = self._get(ino)
        if inode.is_dir:
            raise FsError(EISDIR, f"inode {ino}")
        inode = self._writable(ino)
        inode.atime = self._now()
        return self._read_bytes(inode, offset, length)

    def write(self, ino: int, offset: int, data: bytes) -> int:
        inode = self._get(ino)
        if inode.is_dir:
            raise FsError(EISDIR, f"inode {ino}")
        inode = self._writable(ino)
        end = offset + len(data)
        old_capacity = inode.capacity
        if offset > inode.size and not self.has_bug(VeriFSBug.WRITE_HOLE_STALE):
            # zero the hole between EOF and the write start -- the fix for
            # VeriFS2 bug 1.  With the bug injected, stale bytes left in
            # allocated chunks (e.g. after a shrinking truncate) leak into
            # the hole.
            self._zero_range(inode, inode.size, offset)
        if self.has_bug(VeriFSBug.EXTENT_BOUNDARY_STALE):
            # seeded for the input-exploration benchmarks: a write that
            # straddles an extent (chunk) boundary drops the spill into
            # the second extent, yet the size still advances to the full
            # write end below -- the tail reads back stale/zero.
            boundary = (offset // CHUNK_SIZE + 1) * CHUNK_SIZE
            if offset < boundary < end:
                self._write_bytes(inode, offset, data[:boundary - offset])
            else:
                self._write_bytes(inode, offset, data)
        else:
            self._write_bytes(inode, offset, data)
        if self.has_bug(VeriFSBug.SIZE_UPDATE_ON_CAPACITY_ONLY):
            # VeriFS2 bug 2: the size is updated only when the file grows
            # beyond the chunk capacity it had *before* the write, so an
            # append that fits in the last chunk leaves the size stale.
            if end > old_capacity:
                inode.size = end
        else:
            if end > inode.size:
                inode.size = end
        inode.mtime = inode.ctime = self._now()
        return len(data)

    def truncate(self, ino: int, size: int) -> None:
        inode = self._get(ino)
        if inode.is_dir:
            raise FsError(EISDIR, f"inode {ino}")
        inode = self._writable(ino)
        old_size = inode.size
        if size > old_size:
            needed = (size + CHUNK_SIZE - 1) // CHUNK_SIZE
            new_chunks = sum(
                1 for index in range(needed) if index not in inode.chunks
            )
            # expansion exposes zeros: zero the stale region in existing chunks
            self._zero_range(inode, old_size, size)
            # do not allocate chunks for the hole -- sparse, like a real fs
        else:
            # drop whole chunks past the new end; stale bytes may remain in
            # the final chunk beyond `size` (invisible unless a bug leaks them)
            keep = (size + CHUNK_SIZE - 1) // CHUNK_SIZE
            for index in [i for i in inode.chunks if i >= keep]:
                del inode.chunks[index]
        inode.size = size
        inode.mtime = inode.ctime = self._now()

    def setattr(self, ino, mode=None, uid=None, gid=None, atime=None, mtime=None):
        self._get(ino)
        inode = self._writable(ino)
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
        inode.ctime = self._now()
        return self.getattr(ino)

    # ----------------------------------------------------------------- xattrs --
    def setxattr(self, ino: int, key: str, value: bytes, flags: int = 0) -> None:
        inode = self._get(ino)
        if flags == XATTR_CREATE and key in inode.xattrs:
            raise FsError(EEXIST, key)
        if flags == XATTR_REPLACE and key not in inode.xattrs:
            raise FsError(ENODATA, key)
        inode = self._writable(ino)
        inode.xattrs[key] = bytes(value)
        inode.ctime = self._now()

    def getxattr(self, ino: int, key: str) -> bytes:
        inode = self._get(ino)
        if key not in inode.xattrs:
            raise FsError(ENODATA, key)
        return inode.xattrs[key]

    def listxattr(self, ino: int) -> List[str]:
        return sorted(self._get(ino).xattrs)

    def removexattr(self, ino: int, key: str) -> None:
        inode = self._get(ino)
        if key not in inode.xattrs:
            raise FsError(ENODATA, key)
        inode = self._writable(ino)
        del inode.xattrs[key]
        inode.ctime = self._now()

    def statfs(self) -> StatVFS:
        used = self._total_used()
        return StatVFS(
            block_size=CHUNK_SIZE,
            blocks_total=self.capacity_bytes // CHUNK_SIZE,
            blocks_free=(self.capacity_bytes - used) // CHUNK_SIZE,
            files_total=1 << 20,
            files_free=(1 << 20) - len(self.inodes),
        )
