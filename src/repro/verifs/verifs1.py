"""VeriFS1: the paper's first, deliberately simple VeriFS.

Per section 5: "the initial version, VeriFS1, was fairly simple.  It used
a fixed-length inode array with a contiguous memory buffer attached to
each inode as the file data.  It had only a limited set of file system
operations and lacked support for access(), rename(), symbolic and hard
links, and extended attributes.  It also did not limit the amount of data
that could be stored."

Unimplemented operations fail with ``ENOSYS`` through the FUSE dispatch
(there simply is no method), exactly like a missing libFUSE callback.

The two historical VeriFS1 bugs are injectable via
:class:`~repro.verifs.bugs.VeriFSBug`:

* ``TRUNCATE_STALE_DATA`` -- expanding truncate exposes stale buffer
  bytes instead of zeros;
* ``MISSING_CACHE_INVALIDATION`` -- state restore skips the kernel
  cache-invalidation notifications (the ghost-EEXIST bug).
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional

from repro.errors import (
    EEXIST,
    EINVAL,
    EISDIR,
    ENOENT,
    ENOSPC,
    ENOTDIR,
    ENOTEMPTY,
    FsError,
)
from repro.kernel.stat import (
    DT_DIR,
    DT_REG,
    Dirent,
    S_IFDIR,
    S_IFMT,
    S_IFREG,
    StatResult,
    StatVFS,
)
from repro.verifs.bugs import VeriFSBug
from repro.verifs.common import VeriFSBase

DEFAULT_INODE_TABLE_SIZE = 1024


class V1Inode:
    """One slot of the fixed-length inode array."""

    __slots__ = ("ino", "mode", "uid", "gid", "nlink", "size",
                 "atime", "mtime", "ctime", "buffer", "entries", "parent",
                 "shared")

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
        #: the contiguous data buffer; may be longer than ``size``
        #: (capacity), which is what makes the truncate bug observable.
        self.buffer = bytearray()
        #: directory entries, name -> child ino (insertion-ordered)
        self.entries: Dict[str, int] = {}
        self.parent = 0

    @property
    def is_dir(self) -> bool:
        return (self.mode & S_IFMT) == S_IFDIR

    def clone(self) -> "V1Inode":
        """Writable copy of a sealed inode (the copy-on-write step).

        Equivalent to ``copy.deepcopy`` -- the buffer and the entry map
        are this inode's only mutable containers -- but without the
        generic-deepcopy machinery.  The clone starts unsealed.
        """
        # bypass __init__: every slot is assigned below
        other = object.__new__(V1Inode)
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
        other.buffer = bytearray(self.buffer)
        other.entries = dict(self.entries)
        other.parent = self.parent
        return other


class VeriFS1(VeriFSBase):
    """The simple fixed-array VeriFS."""

    def __init__(self, bugs=(), clock=None, inode_table_size: int = DEFAULT_INODE_TABLE_SIZE):
        super().__init__(bugs=bugs, clock=clock)
        self.inode_table_size = inode_table_size
        #: the fixed-capacity inode array, stored only up to its highest
        #: slot ever used (slots past the end are free): a copy-on-write
        #: checkpoint copies the used part of the table, not its capacity
        self.inodes: List[Optional[V1Inode]] = [None] * (self.ROOT_INO + 1)
        root = V1Inode(self.ROOT_INO)
        root.mode = S_IFDIR | 0o755
        root.nlink = 2
        root.parent = self.ROOT_INO
        root.atime = root.mtime = root.ctime = self._now()
        self.inodes[self.ROOT_INO] = root
        self._fresh.append(root)

    # ------------------------------------------------------- state capture --
    def _capture_state(self) -> Dict[str, Any]:
        return {"inodes": self.inodes}

    def _restore_state(self, state: Dict[str, Any]) -> None:
        # Every inode in a stored snapshot is sealed, so the table can be
        # adopted as-is; the first write to any inode clones it first.
        self.inodes = state["inodes"]
        self._fresh.clear()

    def _clone_state(self, state: Dict[str, Any]) -> Dict[str, Any]:
        # Copy-on-write checkpoint: seal the inodes touched since the
        # last checkpoint and share the rest structurally.  Only the
        # slot table itself is copied.
        self._seal_fresh()
        return {"inodes": list(state["inodes"])}

    # --------------------------------------------------------------- helpers --
    def _get(self, ino: int) -> V1Inode:
        if not 0 < ino < self.inode_table_size:
            raise FsError(ENOENT, f"inode {ino} out of range")
        inode = self.inodes[ino] if ino < len(self.inodes) else None
        if inode is None:
            raise FsError(ENOENT, f"inode {ino}")
        return inode

    def _get_dir(self, ino: int) -> V1Inode:
        inode = self._get(ino)
        if not inode.is_dir:
            raise FsError(ENOTDIR, f"inode {ino}")
        return inode

    def _alloc(self) -> V1Inode:
        inodes = self.inodes
        for ino in range(1, self.inode_table_size):
            if ino == len(inodes):
                inodes.append(None)  # first use of this slot
            if inodes[ino] is None:
                inode = V1Inode(ino)
                inodes[ino] = inode
                self._fresh.append(inode)
                return inode
        raise FsError(ENOSPC, "inode table full")

    def _writable(self, ino: int) -> V1Inode:
        """The inode, cloned first if a snapshot holds the current object."""
        inode = self._get(ino)
        if inode.shared:
            inode = inode.clone()
            self.inodes[ino] = inode
            self._fresh.append(inode)
        return inode

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
            st_blocks=(inode.size + 511) // 512,
            st_atime=inode.atime, st_mtime=inode.mtime, st_ctime=inode.ctime,
        )

    def readdir(self, dir_ino: int) -> List[Dirent]:
        directory = self._get_dir(dir_ino)
        result = []
        for name, child_ino in directory.entries.items():
            child = self._get(child_ino)
            result.append(Dirent(name=name, ino=child_ino,
                                 dtype=DT_DIR if child.is_dir else DT_REG))
        return result

    def create(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> int:
        self.check_name(name)
        directory = self._get_dir(dir_ino)
        if name in directory.entries:
            raise FsError(EEXIST, name)
        inode = self._alloc()
        inode.mode = S_IFREG | (mode & 0o7777)
        inode.uid, inode.gid = uid, gid
        inode.nlink = 1
        inode.parent = dir_ino
        inode.atime = inode.mtime = inode.ctime = self._now()
        directory = self._writable(dir_ino)
        directory.entries[name] = inode.ino
        directory.mtime = directory.ctime = self._now()
        return inode.ino

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> int:
        self.check_name(name)
        directory = self._get_dir(dir_ino)
        if name in directory.entries:
            raise FsError(EEXIST, name)
        inode = self._alloc()
        inode.mode = S_IFDIR | (mode & 0o7777)
        inode.uid, inode.gid = uid, gid
        inode.nlink = 2
        inode.parent = dir_ino
        inode.atime = inode.mtime = inode.ctime = self._now()
        directory = self._writable(dir_ino)
        directory.entries[name] = inode.ino
        directory.nlink += 1
        directory.mtime = directory.ctime = self._now()
        return inode.ino

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
            # last (VeriFS1: only) link -- drop the slot; the snapshot
            # pool's references to the old object are untouched
            self.inodes[child_ino] = None
        else:
            child = self._writable(child_ino)
            child.nlink -= 1

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
        self.inodes[child_ino] = None

    def read(self, ino: int, offset: int, length: int) -> bytes:
        inode = self._get(ino)
        if inode.is_dir:
            raise FsError(EISDIR, f"inode {ino}")
        inode = self._writable(ino)
        inode.atime = self._now()
        if offset >= inode.size:
            return b""
        end = min(offset + length, inode.size)
        data = bytes(inode.buffer[offset:end])
        if len(data) < end - offset:
            data += b"\x00" * (end - offset - len(data))
        return data

    def write(self, ino: int, offset: int, data: bytes) -> int:
        inode = self._get(ino)
        if inode.is_dir:
            raise FsError(EISDIR, f"inode {ino}")
        inode = self._writable(ino)
        end = offset + len(data)
        if len(inode.buffer) < end:
            inode.buffer.extend(b"\x00" * (end - len(inode.buffer)))
        if offset > inode.size:
            # zero the hole between EOF and the write start (VeriFS1 always
            # did this correctly; the hole bug is a VeriFS2 story)
            inode.buffer[inode.size : offset] = b"\x00" * (offset - inode.size)
        inode.buffer[offset:end] = data
        inode.size = max(inode.size, end)
        inode.mtime = inode.ctime = self._now()
        return len(data)

    def truncate(self, ino: int, size: int) -> None:
        inode = self._get(ino)
        if inode.is_dir:
            raise FsError(EISDIR, f"inode {ino}")
        inode = self._writable(ino)
        old_size = inode.size
        if size > len(inode.buffer):
            inode.buffer.extend(b"\x00" * (size - len(inode.buffer)))
        if size > old_size and not self.has_bug(VeriFSBug.TRUNCATE_STALE_DATA):
            # clear newly exposed space -- the fix for VeriFS1 bug 1.
            # With the bug injected, whatever stale bytes remain in the
            # buffer's capacity region become visible file content.
            inode.buffer[old_size:size] = b"\x00" * (size - old_size)
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

    def statfs(self) -> StatVFS:
        # VeriFS1 imposes no data limit; report generous fixed numbers.
        used_inodes = sum(1 for inode in self.inodes if inode is not None)
        return StatVFS(
            block_size=4096,
            blocks_total=1 << 20,
            blocks_free=1 << 20,
            files_total=self.inode_table_size,
            files_free=self.inode_table_size - used_inodes,
        )
