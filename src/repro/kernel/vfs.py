"""VFS interfaces implemented by every simulated file system.

A :class:`FileSystemType` knows how to format (``mkfs``) and mount a
device; mounting yields a :class:`MountedFileSystem` -- the driver instance
holding the file system's *in-memory* state (caches, tables, open maps).
The kernel talks to mounted file systems exclusively in terms of inode
numbers, like the real VFS.

The in-memory/on-disk split is the crux of the paper: the model checker
can snapshot the device image easily, but the MountedFileSystem object's
private state is invisible to it (section 3.1).  Unmounting flushes and
discards that state; remounting rebuilds it from disk -- the workaround of
section 3.2.  VeriFS instead checkpoints its own state via ioctls.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.errors import ENOTSUP, ENOTTY, FsError
from repro.kernel.stat import Dirent, StatResult, StatVFS


class FileSystemType(ABC):
    """A file-system driver: formats devices and produces mounted instances."""

    #: short name, e.g. "ext2", "xfs", "verifs1"
    name: str = "?"
    #: smallest device this fs can be formatted onto (bytes); None = any / no device
    min_device_size: Optional[int] = None
    #: paths (relative to the mount root) of special files/folders created by
    #: mkfs, e.g. ext's "lost+found".  MCFS puts these on its exception list.
    special_paths: Tuple[str, ...] = ()

    @abstractmethod
    def mkfs(self, device) -> None:
        """Write a fresh, empty file system onto ``device``."""

    @abstractmethod
    def mount(self, device, kernel=None) -> "MountedFileSystem":
        """Load the on-disk state and return a live driver instance."""


@dataclass
class Mount:
    """One entry in the kernel's mount table.

    Beyond the mount identity, the kernel keeps *dirty-path tracking*
    here: every mutating syscall records which fs-relative paths it
    touched since the abstraction function's last walk, so the walk can
    re-hash only what changed (the incremental-abstraction hot path).
    Three granularities, coarsest fallback first:

    * ``fully_dirty`` -- nothing can be trusted; the next walk is full.
      New mounts start fully dirty; restores and hard-link nlink fan-out
      (where the other link names are unknown) fall back to it.
    * ``dirty_paths`` -- the entry *and everything below it* changed
      (writes, truncates, renamed-over targets): evict and re-walk the
      subtree.
    * ``dirty_records`` -- only the entry's own attributes changed
      (chmod/chown/utimens/xattrs): re-stat without touching content or
      children.
    * ``dirty_parents`` -- a directory's *membership* changed (create,
      unlink, mkdir, rmdir, rename): reconcile its entry list and
      refresh its own record, leaving untouched children cached.

    ``change_generation`` bumps on every mark, so a walker can skip all
    work when nothing changed at all.  ``multilink_inos`` remembers file
    inodes that ever gained a second hard link: mutating one of their
    names changes the nlink visible at the *other* names, which the
    path-granular sets cannot express.
    """

    mountpoint: str
    fs: "MountedFileSystem"
    fstype: FileSystemType
    device: object = None
    mount_id: int = 0
    generation: int = 0  # bumped on each remount; stale-cache detection in tests
    fully_dirty: bool = True
    dirty_paths: Set[str] = field(default_factory=set)
    dirty_records: Set[str] = field(default_factory=set)
    dirty_parents: Set[str] = field(default_factory=set)
    multilink_inos: Set[int] = field(default_factory=set)
    change_generation: int = 0
    #: set after the fs answers ENOTSUP/ENOSYS to listxattr once: xattr
    #: support cannot appear mid-mount, so readers skip the round trip
    xattrs_unsupported: bool = False

    # -- dirty-path marking (called by the kernel's mutating syscalls) -----
    def mark_dirty_entry(self, rel_path: str) -> None:
        """Entry content changed: the subtree at ``rel_path`` must be
        re-walked."""
        self.change_generation += 1
        if rel_path == "/":
            self.mark_fully_dirty()
        elif not self.fully_dirty:
            self.dirty_paths.add(rel_path)

    def mark_dirty_record(self, rel_path: str) -> None:
        """Only the entry's own attributes changed (not content or
        membership): a re-stat suffices."""
        self.change_generation += 1
        if rel_path != "/" and not self.fully_dirty:
            self.dirty_records.add(rel_path)

    def mark_dirty_parent(self, rel_dir: str) -> None:
        """Directory membership changed: reconcile its entry list."""
        self.change_generation += 1
        if not self.fully_dirty:
            self.dirty_parents.add(rel_dir)

    def mark_fully_dirty(self) -> None:
        """Give up on path granularity: the next walk must be full."""
        self.change_generation += 1
        self.fully_dirty = True
        self.dirty_paths.clear()
        self.dirty_records.clear()
        self.dirty_parents.clear()

    def carry_dirty_from(self, previous: "Mount") -> None:
        """Adopt another mount's dirty state (clean remounts preserve
        the observable tree, so its tracking stays valid)."""
        self.fully_dirty = previous.fully_dirty
        self.dirty_paths = set(previous.dirty_paths)
        self.dirty_records = set(previous.dirty_records)
        self.dirty_parents = set(previous.dirty_parents)
        self.multilink_inos = set(previous.multilink_inos)
        self.change_generation = previous.change_generation + 1


class MountedFileSystem(ABC):
    """A mounted file-system instance (driver + in-memory state).

    All methods take/return inode numbers.  Implementations raise
    :class:`FsError` for POSIX failures.  ``ROOT_INO`` is the inode
    number of the mount root (per-driver constant).
    """

    ROOT_INO = 1

    # -- lifecycle ---------------------------------------------------------------
    def mounted(self, kernel, mount_id: int) -> None:
        """Called once, after ``kernel`` registered this instance under
        ``mount_id`` (FUSE hooks its notify channel up here)."""

    @abstractmethod
    def sync(self) -> None:
        """Flush all dirty in-memory state to the backing store."""

    @abstractmethod
    def unmount(self) -> None:
        """Flush and discard in-memory state; the instance becomes dead."""

    # -- namespace ---------------------------------------------------------------
    @abstractmethod
    def lookup(self, dir_ino: int, name: str) -> int:
        """Return the inode number for ``name`` in directory ``dir_ino``.

        Raises ``ENOENT`` if absent, ``ENOTDIR`` if ``dir_ino`` is not a
        directory.
        """

    @abstractmethod
    def getattr(self, ino: int) -> StatResult:
        """Return the stat data of ``ino``."""

    @abstractmethod
    def getdents(self, dir_ino: int) -> List[Dirent]:
        """List directory entries excluding ``.`` and ``..``.

        Entry order is implementation-defined (this matters: MCFS must
        sort before comparing, section 3.4).
        """

    def getdents_attrs(self, dir_ino: int) -> List[Tuple[Dirent, StatResult]]:
        """List entries with their stat data in one call.

        The readdirplus composition: byte-identical to ``getdents``
        followed by per-entry ``getattr``, but a driver can satisfy it
        without a round trip per entry.  This default composes the two
        primitives, so every file system supports it.
        """
        return [(dirent, self.getattr(dirent.ino))
                for dirent in self.getdents(dir_ino)]

    @abstractmethod
    def create(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> int:
        """Create a regular file; return its inode number."""

    @abstractmethod
    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> int:
        """Create a directory; return its inode number."""

    @abstractmethod
    def unlink(self, dir_ino: int, name: str) -> None:
        """Remove a non-directory entry (dropping a link)."""

    @abstractmethod
    def rmdir(self, dir_ino: int, name: str) -> None:
        """Remove an empty directory."""

    # -- data --------------------------------------------------------------------
    @abstractmethod
    def read(self, ino: int, offset: int, length: int) -> bytes:
        """Read up to ``length`` bytes at ``offset`` (short read at EOF)."""

    @abstractmethod
    def write(self, ino: int, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset``; return bytes written."""

    @abstractmethod
    def truncate(self, ino: int, size: int) -> None:
        """Set the file size, zero-filling any newly exposed range."""

    # -- optional operations (drivers without support raise ENOTSUP) ---------------
    def rename(
        self, old_dir: int, old_name: str, new_dir: int, new_name: str
    ) -> None:
        raise FsError(ENOTSUP, f"{type(self).__name__} does not support rename")

    def link(self, ino: int, dir_ino: int, name: str) -> None:
        raise FsError(ENOTSUP, f"{type(self).__name__} does not support hard links")

    def symlink(
        self, dir_ino: int, name: str, target: str, uid: int, gid: int
    ) -> int:
        raise FsError(ENOTSUP, f"{type(self).__name__} does not support symlinks")

    def readlink(self, ino: int) -> str:
        raise FsError(ENOTSUP, f"{type(self).__name__} does not support symlinks")

    def setattr(
        self,
        ino: int,
        mode: Optional[int] = None,
        uid: Optional[int] = None,
        gid: Optional[int] = None,
        atime: Optional[float] = None,
        mtime: Optional[float] = None,
    ) -> StatResult:
        raise FsError(ENOTSUP, f"{type(self).__name__} does not support setattr")

    def setxattr(self, ino: int, key: str, value: bytes, flags: int = 0) -> None:
        raise FsError(ENOTSUP, f"{type(self).__name__} does not support xattrs")

    def getxattr(self, ino: int, key: str) -> bytes:
        raise FsError(ENOTSUP, f"{type(self).__name__} does not support xattrs")

    def listxattr(self, ino: int) -> List[str]:
        raise FsError(ENOTSUP, f"{type(self).__name__} does not support xattrs")

    def removexattr(self, ino: int, key: str) -> None:
        raise FsError(ENOTSUP, f"{type(self).__name__} does not support xattrs")

    def ioctl(self, ino: int, request: int, arg: object = None) -> object:
        """Driver-specific control; VeriFS implements checkpoint/restore here."""
        raise FsError(ENOTTY, f"{type(self).__name__} has no ioctl {request:#x}")

    @abstractmethod
    def statfs(self) -> StatVFS:
        """Return usage information (total/free blocks and inodes)."""

    # -- integrity (the engine's consistency checks, the crash sweep) ---------------
    def check_consistency(self) -> List[str]:
        """Return the live tree's consistency violations (empty = clean).

        The one fsck tree audit (``repro.analysis.fsck``) over the source
        ``mounted_checker`` picks for this mount: dirents must name live
        inodes, ``.``/``..`` and one parent per directory, link counts
        must match the tree, and a block format's mapped blocks must be
        claimed once and allocated in its bitmap.  Only error findings
        count.  The cache-incoherency experiments use this to
        *demonstrate* corruption rather than asserting it abstractly.
        """
        from repro.analysis.fsck.generic import mounted_checker  # the audit imports the drivers

        return [finding.message for finding in mounted_checker(self).check()
                if finding.severity == "error"]
