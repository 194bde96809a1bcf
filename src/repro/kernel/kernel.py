"""The simulated kernel: mount table, path walking, and syscalls.

The :class:`Kernel` exposes a POSIX-ish syscall surface (open/read/write/
mkdir/rename/...) over any number of mounted :class:`MountedFileSystem`
instances.  Path resolution goes through the dentry cache, timestamps come
from the shared :class:`SimClock`, and every syscall charges dispatch
overhead to the clock so that benchmark speeds reflect the modelled
system.

Design notes relevant to the paper:

* The dentry cache holds positive *and* negative entries and is only
  purged by unmount or by the explicit invalidation API
  (:meth:`Kernel.invalidate_entry` / :meth:`Kernel.invalidate_inode`,
  the analogues of ``fuse_lowlevel_notify_inval_entry/inode``).  A file
  system whose state is rolled back without telling the kernel exhibits
  exactly the ghost-EEXIST bug of section 6.
* Unmount refuses (``EBUSY``) while descriptors are open -- which is why
  MCFS needs the ``create_file``/``write_file`` meta-operations when it
  remounts between every step (section 4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.clock import Cost, SimClock
from repro.errors import (
    EACCES,
    EBUSY,
    EEXIST,
    EINVAL,
    EISDIR,
    ELOOP,
    ENOENT,
    ENOTDIR,
    EROFS,
    EXDEV,
    FsError,
)
from repro.kernel.dcache import DentryCache, NEGATIVE
from repro.kernel.fdtable import (
    FDTable,
    O_ACCMODE,
    O_APPEND,
    O_CREAT,
    O_DIRECTORY,
    O_EXCL,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
    OpenFile,
)
from repro.kernel.stat import (
    DT_DIR,
    DT_LNK,
    DT_REG,
    DT_UNKNOWN,
    Dirent,
    S_IFDIR,
    S_IFLNK,
    S_IFMT,
    StatResult,
    StatVFS,
    mode_to_dtype,
)
from repro.kernel.vfs import FileSystemType, Mount, MountedFileSystem
from repro.util.paths import normalize_path, split_path

MAX_SYMLINK_DEPTH = 40

# Access-mode bits for access(2).
F_OK = 0
X_OK = 1
W_OK = 2
R_OK = 4


class Kernel:
    """A single simulated kernel instance."""

    def __init__(self, clock: Optional[SimClock] = None, uid: int = 0, gid: int = 0):
        self.clock = clock if clock is not None else SimClock()
        self.uid = uid
        self.gid = gid
        self.dcache = DentryCache()
        self.fdtable = FDTable()
        self._mounts: Dict[str, Mount] = {}
        self._next_mount_id = 1
        self.syscall_count = 0
        #: memo for _find_mount: path -> (mount, relative, components).
        #: Pure mountpoint arithmetic, so entries stay valid until the
        #: mount table itself changes; mount()/umount() clear it.
        self._mount_cache: Dict[str, Tuple[Mount, str, Tuple[str, ...]]] = {}

    # ------------------------------------------------------------------ mounts --
    def mount(self, fstype: FileSystemType, device, mountpoint: str) -> Mount:
        """Mount ``device`` (formatted as ``fstype``) at ``mountpoint``."""
        mountpoint = normalize_path(mountpoint)
        if mountpoint in self._mounts:
            raise FsError(EBUSY, f"{mountpoint} is already a mountpoint")
        for existing in self._mounts:
            if existing == "/" or mountpoint.startswith(existing + "/"):
                raise FsError(EBUSY, f"{mountpoint} is inside mount {existing}")
        size_cost = (
            device.size_bytes * Cost.MOUNT_PER_BYTE if device is not None else 0.0
        )
        self.clock.charge(Cost.MOUNT_FIXED + size_cost, "mount")
        fs = fstype.mount(device, kernel=self)
        mount = Mount(
            mountpoint=mountpoint,
            fs=fs,
            fstype=fstype,
            device=device,
            mount_id=self._next_mount_id,
        )
        self._next_mount_id += 1
        self._mounts[mountpoint] = mount
        self._mount_cache.clear()
        fs.mounted(self, mount.mount_id)
        return mount

    def umount(self, mountpoint: str) -> None:
        """Unmount, flushing the fs and purging all its kernel caches."""
        mountpoint = normalize_path(mountpoint)
        mount = self._mounts.get(mountpoint)
        if mount is None:
            raise FsError(EINVAL, f"{mountpoint} is not mounted")
        if self.fdtable.open_fds_for_mount(mount.mount_id):
            raise FsError(EBUSY, f"{mountpoint} has open file descriptors")
        self.clock.charge(Cost.UMOUNT_FIXED, "umount")
        mount.fs.unmount()
        self.dcache.invalidate_mount(mount.mount_id)
        del self._mounts[mountpoint]
        self._mount_cache.clear()

    def remount(self, mountpoint: str) -> Mount:
        """Unmount and immediately re-mount: the paper's coherency hammer.

        This is the *only* operation that fully guarantees no stale state
        remains in kernel memory (section 3.2).  It is also expensive --
        which is the whole point of the checkpoint/restore APIs.
        """
        mountpoint = normalize_path(mountpoint)
        mount = self._mounts.get(mountpoint)
        if mount is None:
            raise FsError(EINVAL, f"{mountpoint} is not mounted")
        generation = mount.generation
        fstype, device = mount.fstype, mount.device
        self.umount(mountpoint)
        new_mount = self.mount(fstype, device, mountpoint)
        new_mount.generation = generation + 1
        # a clean remount does not change the observable tree, so the
        # dirty-path tracking of the old mount stays valid
        new_mount.carry_dirty_from(mount)
        return new_mount

    def mounts(self) -> List[Mount]:
        return list(self._mounts.values())

    def mount_at(self, mountpoint: str) -> Mount:
        # mountpoints are stored normalised; callers almost always pass
        # the canonical string, so try the direct hit before normalising
        mount = self._mounts.get(mountpoint)
        if mount is None:
            mount = self._mounts.get(normalize_path(mountpoint))
            if mount is None:
                raise FsError(EINVAL, f"{mountpoint} is not mounted")
        return mount

    # ---------------------------------------------------------- cache control --
    def invalidate_entry(self, mount_id: int, parent_ino: int, name: str) -> None:
        """fuse_lowlevel_notify_inval_entry: drop one cached dentry."""
        self.dcache.invalidate_entry(mount_id, parent_ino, name)

    def invalidate_inode(self, mount_id: int, ino: int) -> None:
        """fuse_lowlevel_notify_inval_inode: drop cached dentries for an inode."""
        self.dcache.invalidate_inode(mount_id, ino)

    def invalidate_mount_caches(self, mount_id: int) -> None:
        """Drop every cached dentry of a mount (full invalidation).

        Callers invalidate because the fs state changed underneath the
        kernel (restores, rollbacks), so the dirty-path tracking cannot
        be trusted either: the next abstraction walk must be full.
        """
        self.dcache.invalidate_mount(mount_id)
        for mount in self._mounts.values():
            if mount.mount_id == mount_id:
                mount.mark_fully_dirty()
                break

    # ------------------------------------------------------------ path walking --
    def _find_mount(self, path: str) -> Tuple[Mount, str, Tuple[str, ...]]:
        """Return the mount covering ``path``, the fs-relative remainder and
        the remainder's components."""
        cached = self._mount_cache.get(path)
        if cached is not None:
            return cached
        raw = path
        path = normalize_path(path)
        best: Optional[str] = None
        # mountpoints are stored normalised (mount() canonicalises them),
        # so the subpath test inlines to plain string comparisons
        for mountpoint in self._mounts:
            if (mountpoint == "/" or path == mountpoint
                    or path.startswith(mountpoint + "/")):
                if best is None or len(mountpoint) > len(best):
                    best = mountpoint
        if best is None:
            raise FsError(ENOENT, f"no file system mounted covering {path}")
        relative = (path[len(best) :] if best != "/" else path) or "/"
        components = tuple(relative[1:].split("/")) if relative != "/" else ()
        result = (self._mounts[best], relative, components)
        self._mount_cache[raw] = result
        return result

    def _lookup_child_typed(self, mount: Mount, dir_ino: int,
                            name: str) -> Tuple[int, int]:
        """One path-walk step, through the dentry cache.

        Returns ``(child_ino, d_type)``; ``d_type`` is ``DT_UNKNOWN``
        until some walk has fetched the child's attributes (the dcache
        then remembers the type for the dentry's lifetime, since an
        inode's file type never changes).
        """
        cached = self.dcache.get(mount.mount_id, dir_ino, name)
        if cached is None:
            return self._lookup_uncached(mount, dir_ino, name)
        if cached is NEGATIVE:
            raise FsError(ENOENT, name)
        return cached  # type: ignore[return-value]

    def _lookup_uncached(self, mount: Mount, dir_ino: int,
                         name: str) -> Tuple[int, int]:
        """A dcache miss: ask the fs, and cache its answer either way."""
        try:
            ino = mount.fs.lookup(dir_ino, name)
        except FsError as exc:
            if exc.code == ENOENT:
                self.dcache.insert_negative(mount.mount_id, dir_ino, name)
            raise
        self.dcache.insert(mount.mount_id, dir_ino, name, ino)
        return ino, DT_UNKNOWN

    def _child_dtype(self, mount: Mount, dir_ino: int, name: str,
                     child: int) -> int:
        """Fetch a dentry's missing d_type and remember it."""
        dtype = mode_to_dtype(mount.fs.getattr(child).st_mode)
        self.dcache.insert(mount.mount_id, dir_ino, name, child, dtype)
        return dtype

    def _resolve_entry(
        self, path: str, follow_last_symlink: bool = True, _depth: int = 0
    ) -> Tuple[Mount, int, str, int]:
        """Resolve ``path`` to ``(mount, inode, fs-relative path, d_type)``.

        A warm walk is pure dcache: each step's is-directory check and
        the symlink test read the cached d_type instead of issuing a
        ``getattr`` per component (twice, as the pre-d_type walker did).
        Only a cold dentry pays one ``getattr`` to learn its type.

        The returned relative path has every symlink expanded, so it is
        the canonical name the dirty-path tracking indexes by.  A walk
        that follows no symlink resolves to the normalised relative path
        itself, so the partial path is only spelled out for an error
        message or a relative symlink target.
        """
        if _depth > MAX_SYMLINK_DEPTH:
            raise FsError(ELOOP, path)
        mount, relative, components = self._find_mount(path)
        ino = mount.fs.ROOT_INO
        dtype = DT_DIR  # a mount root is a directory by construction
        last = len(components) - 1
        dcache, mount_id = self.dcache, mount.mount_id
        for index, name in enumerate(components):
            if dtype != DT_DIR:
                raise FsError(ENOTDIR, self._walked(mount, components, index)
                              or "/")
            # _lookup_child_typed, inlined: one dcache probe per component
            entry = dcache.get(mount_id, ino, name)
            if entry is None:
                entry = self._lookup_uncached(mount, ino, name)
            elif entry is NEGATIVE:
                raise FsError(ENOENT, name)
            child, child_type = entry
            if child_type == DT_UNKNOWN:
                child_type = self._child_dtype(mount, ino, name, child)
            if child_type == DT_LNK and (index != last or follow_last_symlink):
                target = mount.fs.readlink(child)
                if target.startswith("/"):
                    base = target
                else:
                    base = self._walked(mount, components, index) + "/" + target
                rest = "/".join(components[index + 1 :])
                full = base + ("/" + rest if rest else "")
                return self._resolve_entry(full, follow_last_symlink, _depth + 1)
            ino = child
            dtype = child_type
        return mount, ino, relative, dtype

    @staticmethod
    def _walked(mount: Mount, components: Tuple[str, ...], count: int) -> str:
        """Absolute path of the first ``count`` components of a walk."""
        prefix = mount.mountpoint if mount.mountpoint != "/" else ""
        return prefix + "".join("/" + name for name in components[:count])

    def _walk_parent(self, path: str) -> Tuple[Mount, int, str, str]:
        """Resolve the parent directory of ``path``.

        Returns ``(mount, dir_ino, name, parent's fs-relative path)``.
        """
        parent, name = split_path(path)
        if not name:
            raise FsError(EINVAL, f"cannot take parent of {path!r}")
        mount, dir_ino, rel_dir, dtype = self._resolve_entry(parent)
        if dtype != DT_DIR:
            raise FsError(ENOTDIR, parent)
        return mount, dir_ino, name, rel_dir

    @staticmethod
    def _child_rel(rel_dir: str, name: str) -> str:
        return (rel_dir if rel_dir != "/" else "") + "/" + name

    def _mark_inode_entry(self, mount: Mount, rel: str, ino: int) -> None:
        """Content under the name ``rel`` (inode ``ino``) changed."""
        if ino in mount.multilink_inos:
            # the same content is visible under other names we don't know
            mount.mark_fully_dirty()
        else:
            mount.mark_dirty_entry(rel)

    def _mark_inode_record(self, mount: Mount, rel: str, ino: int) -> None:
        """Attributes of the inode named ``rel`` changed (not content)."""
        if ino in mount.multilink_inos:
            mount.mark_fully_dirty()
        else:
            mount.mark_dirty_record(rel)

    def _sys(self) -> None:
        # hand-inlined clock.charge: this runs once per syscall, and the
        # constant is non-negative by construction
        self.syscall_count += 1
        clock = self.clock
        clock.now += Cost.SYSCALL
        try:
            clock.by_category["syscall"] += Cost.SYSCALL
        except KeyError:
            clock.by_category["syscall"] = Cost.SYSCALL

    # ---------------------------------------------------------------- syscalls --
    # Each syscall mirrors its POSIX namesake; failures raise FsError with
    # the POSIX errno so the MCFS integrity checker can compare outcomes.

    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> int:
        self._sys()
        path = normalize_path(path)
        if flags & O_CREAT:
            mount, dir_ino, name, rel_dir = self._walk_parent(path)
            rel = self._child_rel(rel_dir, name)
            existing: Optional[int]
            try:
                existing, dtype = self._lookup_child_typed(mount, dir_ino, name)
            except FsError as exc:
                if exc.code != ENOENT:
                    raise
                existing = None
            if existing is not None:
                if flags & O_EXCL:
                    raise FsError(EEXIST, path)
                ino = existing
                if dtype == DT_UNKNOWN:
                    dtype = self._child_dtype(mount, dir_ino, name, ino)
                if dtype == DT_DIR:
                    raise FsError(EISDIR, path)
            else:
                ino = mount.fs.create(dir_ino, name, mode, self.uid, self.gid)
                self.dcache.invalidate_entry(mount.mount_id, dir_ino, name)
                self.dcache.insert(mount.mount_id, dir_ino, name, ino, DT_REG)
                mount.mark_dirty_parent(rel_dir)
        else:
            mount, ino, rel, dtype = self._resolve_entry(path)
            if dtype == DT_DIR:
                if (flags & O_ACCMODE) != O_RDONLY:
                    raise FsError(EISDIR, path)
            elif flags & O_DIRECTORY:
                raise FsError(ENOTDIR, path)
        if flags & O_TRUNC and (flags & O_ACCMODE) != O_RDONLY:
            mount.fs.truncate(ino, 0)
            self._mark_inode_entry(mount, rel, ino)
        entry = self.fdtable.allocate(mount.mount_id, ino, flags, path)
        entry.dirty_rel = rel
        return entry.fd

    def close(self, fd: int) -> None:
        self._sys()
        self.fdtable.close(fd)

    def _fd_mount(self, entry: OpenFile) -> Mount:
        for mount in self._mounts.values():
            if mount.mount_id == entry.mount_id:
                return mount
        raise FsError(EINVAL, f"mount for fd {entry.fd} has disappeared")

    def read(self, fd: int, length: int) -> bytes:
        self._sys()
        entry = self.fdtable.get(fd)
        if not entry.readable:
            raise FsError(EACCES, f"fd {fd} not open for reading")
        mount = self._fd_mount(entry)
        data = mount.fs.read(entry.ino, entry.offset, length)
        entry.offset += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        self._sys()
        entry = self.fdtable.get(fd)
        if not entry.writable:
            raise FsError(EACCES, f"fd {fd} not open for writing")
        mount = self._fd_mount(entry)
        if entry.append:
            entry.offset = mount.fs.getattr(entry.ino).st_size
        written = mount.fs.write(entry.ino, entry.offset, data)
        entry.offset += written
        # even zero-byte writes can change visible state in some drivers
        # (e.g. a size-extending quirk), so mark unconditionally
        self._mark_fd_write(mount, entry)
        return written

    def pread(self, fd: int, length: int, offset: int) -> bytes:
        self._sys()
        entry = self.fdtable.get(fd)
        if not entry.readable:
            raise FsError(EACCES, f"fd {fd} not open for reading")
        return self._fd_mount(entry).fs.read(entry.ino, offset, length)

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        self._sys()
        entry = self.fdtable.get(fd)
        if not entry.writable:
            raise FsError(EACCES, f"fd {fd} not open for writing")
        mount = self._fd_mount(entry)
        written = mount.fs.write(entry.ino, offset, data)
        self._mark_fd_write(mount, entry)
        return written

    def _mark_fd_write(self, mount: Mount, entry: OpenFile) -> None:
        # ``open`` sets every fd's ``dirty_rel`` and ``rename`` keeps it
        self._mark_inode_entry(mount, entry.dirty_rel, entry.ino)

    def lseek(self, fd: int, offset: int, whence: int = 0) -> int:
        self._sys()
        entry = self.fdtable.get(fd)
        mount = self._fd_mount(entry)
        if whence == 0:  # SEEK_SET
            new = offset
        elif whence == 1:  # SEEK_CUR
            new = entry.offset + offset
        elif whence == 2:  # SEEK_END
            new = mount.fs.getattr(entry.ino).st_size + offset
        else:
            raise FsError(EINVAL, f"bad whence {whence}")
        if new < 0:
            raise FsError(EINVAL, f"negative seek position {new}")
        entry.offset = new
        return new

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._sys()
        mount, dir_ino, name, rel_dir = self._walk_parent(path)
        cached = self.dcache.get(mount.mount_id, dir_ino, name)
        if cached is not None and cached is not NEGATIVE:
            # A cached positive dentry answers without consulting the fs --
            # this is where a stale entry produces the paper's ghost-EEXIST.
            raise FsError(EEXIST, path)
        ino = mount.fs.mkdir(dir_ino, name, mode, self.uid, self.gid)
        self.dcache.invalidate_entry(mount.mount_id, dir_ino, name)
        self.dcache.insert(mount.mount_id, dir_ino, name, ino, DT_DIR)
        mount.mark_dirty_parent(rel_dir)

    def rmdir(self, path: str) -> None:
        self._sys()
        mount, dir_ino, name, rel_dir = self._walk_parent(path)
        mount.fs.rmdir(dir_ino, name)
        self.dcache.invalidate_entry(mount.mount_id, dir_ino, name)
        self.dcache.insert_negative(mount.mount_id, dir_ino, name)
        mount.mark_dirty_parent(rel_dir)

    def unlink(self, path: str) -> None:
        self._sys()
        mount, dir_ino, name, rel_dir = self._walk_parent(path)
        try:
            target_ino: Optional[int] = self._lookup_child_typed(
                mount, dir_ino, name)[0]
        except FsError:
            target_ino = None
        mount.fs.unlink(dir_ino, name)
        self.dcache.invalidate_entry(mount.mount_id, dir_ino, name)
        self.dcache.insert_negative(mount.mount_id, dir_ino, name)
        if target_ino is not None and target_ino in mount.multilink_inos:
            # the surviving links' nlink just changed, names unknown
            mount.mark_fully_dirty()
        else:
            mount.mark_dirty_parent(rel_dir)

    def rename(self, old_path: str, new_path: str) -> None:
        self._sys()
        old_mount, old_dir, old_name, old_rel_dir = self._walk_parent(old_path)
        new_mount, new_dir, new_name, new_rel_dir = self._walk_parent(new_path)
        if old_mount.mount_id != new_mount.mount_id:
            raise FsError(EXDEV, f"{old_path} -> {new_path}")
        # POSIX: renaming onto another hard link of the same inode (or onto
        # itself) succeeds and changes nothing -- both names stay valid.
        source_ino = self._lookup_child_typed(old_mount, old_dir, old_name)[0]
        try:
            target_ino: Optional[int] = self._lookup_child_typed(
                new_mount, new_dir, new_name)[0]
        except FsError as exc:
            if exc.code != ENOENT:
                raise
            target_ino = None
        old_mount.fs.rename(old_dir, old_name, new_dir, new_name)
        if target_ino is not None and target_ino == source_ino:
            return
        self.dcache.invalidate_entry(old_mount.mount_id, old_dir, old_name)
        self.dcache.invalidate_entry(new_mount.mount_id, new_dir, new_name)
        self.dcache.insert_negative(old_mount.mount_id, old_dir, old_name)
        old_rel = self._child_rel(old_rel_dir, old_name)
        new_rel = self._child_rel(new_rel_dir, new_name)
        if target_ino is not None and target_ino in old_mount.multilink_inos:
            # the overwritten target's other links changed nlink
            old_mount.mark_fully_dirty()
        else:
            old_mount.mark_dirty_parent(old_rel_dir)
            old_mount.mark_dirty_parent(new_rel_dir)
            # the whole moved subtree got new path names (and a replaced
            # target's old content is gone): re-walk it
            old_mount.mark_dirty_entry(new_rel)
        # open descriptors into the moved subtree follow the rename
        for fd_entry in self.fdtable.open_fds_for_mount(old_mount.mount_id):
            if fd_entry.dirty_rel == old_rel or \
                    fd_entry.dirty_rel.startswith(old_rel + "/"):
                fd_entry.dirty_rel = new_rel + fd_entry.dirty_rel[len(old_rel):]

    def link(self, existing_path: str, new_path: str) -> None:
        self._sys()
        mount, ino, source_rel, _dtype = self._resolve_entry(
            existing_path, False)
        new_mount, dir_ino, name, rel_dir = self._walk_parent(new_path)
        if mount.mount_id != new_mount.mount_id:
            raise FsError(EXDEV, f"{existing_path} -> {new_path}")
        mount.fs.link(ino, dir_ino, name)
        self.dcache.invalidate_entry(mount.mount_id, dir_ino, name)
        if ino in mount.multilink_inos:
            # a third (or later) link: the other names are unknown
            mount.mark_fully_dirty()
        else:
            # first extra link: the inode's only other name is source_rel
            mount.multilink_inos.add(ino)
            mount.mark_dirty_record(source_rel)
            mount.mark_dirty_parent(rel_dir)

    def symlink(self, target: str, link_path: str) -> None:
        self._sys()
        mount, dir_ino, name, rel_dir = self._walk_parent(link_path)
        ino = mount.fs.symlink(dir_ino, name, target, self.uid, self.gid)
        self.dcache.invalidate_entry(mount.mount_id, dir_ino, name)
        self.dcache.insert(mount.mount_id, dir_ino, name, ino, DT_LNK)
        mount.mark_dirty_parent(rel_dir)

    def readlink(self, path: str) -> str:
        self._sys()
        mount, ino, _rel, _dtype = self._resolve_entry(path, False)
        return mount.fs.readlink(ino)

    def truncate(self, path: str, size: int) -> None:
        self._sys()
        if size < 0:
            raise FsError(EINVAL, f"negative truncate size {size}")
        mount, ino, rel, dtype = self._resolve_entry(path)
        if dtype == DT_DIR:
            raise FsError(EISDIR, path)
        mount.fs.truncate(ino, size)
        self._mark_inode_entry(mount, rel, ino)

    def ftruncate(self, fd: int, size: int) -> None:
        self._sys()
        if size < 0:
            raise FsError(EINVAL, f"negative truncate size {size}")
        entry = self.fdtable.get(fd)
        if not entry.writable:
            raise FsError(EACCES, f"fd {fd} not open for writing")
        mount = self._fd_mount(entry)
        mount.fs.truncate(entry.ino, size)
        self._mark_fd_write(mount, entry)

    def stat(self, path: str) -> StatResult:
        self._sys()
        mount, ino, _rel, _dtype = self._resolve_entry(path)
        return mount.fs.getattr(ino)

    def lstat(self, path: str) -> StatResult:
        self._sys()
        mount, ino, _rel, _dtype = self._resolve_entry(path, False)
        return mount.fs.getattr(ino)

    def fstat(self, fd: int) -> StatResult:
        self._sys()
        entry = self.fdtable.get(fd)
        return self._fd_mount(entry).fs.getattr(entry.ino)

    def getdents(self, path: str) -> List[Dirent]:
        self._sys()
        mount, ino, _rel, dtype = self._resolve_entry(path)
        if dtype != DT_DIR:
            raise FsError(ENOTDIR, path)
        return mount.fs.getdents(ino)

    def getdents_attrs(self, path: str) -> List[Tuple[Dirent, StatResult]]:
        """``getdents`` plus each entry's ``lstat`` in one syscall.

        The readdirplus surface: results are byte-identical to a
        ``getdents`` loop calling ``lstat`` per entry, without a path
        resolution (and, for FUSE mounts, a message round trip) per
        entry.  Like real readdirplus, the reply instantiates dentries:
        every entry is inserted into the dcache with its d_type, warming
        later walks.
        """
        self._sys()
        mount, ino, _rel, dtype = self._resolve_entry(path)
        if dtype != DT_DIR:
            raise FsError(ENOTDIR, path)
        entries = mount.fs.getdents_attrs(ino)
        mount_id = mount.mount_id
        insert = self.dcache.insert
        for dirent, attrs in entries:
            insert(mount_id, ino, dirent.name, dirent.ino,
                   mode_to_dtype(attrs.st_mode))
        return entries

    def chmod(self, path: str, mode: int) -> None:
        self._sys()
        mount, ino, rel, _dtype = self._resolve_entry(path)
        mount.fs.setattr(ino, mode=mode & 0o7777)
        self._mark_inode_record(mount, rel, ino)

    def chown(self, path: str, uid: int, gid: int) -> None:
        self._sys()
        mount, ino, rel, _dtype = self._resolve_entry(path)
        mount.fs.setattr(ino, uid=uid if uid >= 0 else None, gid=gid if gid >= 0 else None)
        self._mark_inode_record(mount, rel, ino)

    def utimens(self, path: str, atime: Optional[float], mtime: Optional[float]) -> None:
        self._sys()
        mount, ino, rel, _dtype = self._resolve_entry(path)
        mount.fs.setattr(ino, atime=atime, mtime=mtime)
        self._mark_inode_record(mount, rel, ino)

    def access(self, path: str, amode: int = F_OK) -> None:
        """access(2): raise EACCES/ENOENT rather than returning -1."""
        self._sys()
        mount, ino, _rel, _dtype = self._resolve_entry(path)
        if amode == F_OK:
            return
        attrs = mount.fs.getattr(ino)
        if self.uid == 0:
            # Root bypasses rwx checks except X on files with no x bits.
            if amode & X_OK and attrs.is_file and not attrs.st_mode & 0o111:
                raise FsError(EACCES, path)
            return
        if attrs.st_uid == self.uid:
            bits = (attrs.st_mode >> 6) & 7
        elif attrs.st_gid == self.gid:
            bits = (attrs.st_mode >> 3) & 7
        else:
            bits = attrs.st_mode & 7
        wanted = ((amode & R_OK) and 4) | ((amode & W_OK) and 2) | ((amode & X_OK) and 1)
        if wanted & ~bits:
            raise FsError(EACCES, path)

    def statfs(self, path: str) -> StatVFS:
        self._sys()
        mount, _ino, _rel, _dtype = self._resolve_entry(path)
        return mount.fs.statfs()

    def fsync(self, fd: int) -> None:
        self._sys()
        entry = self.fdtable.get(fd)
        self._fd_mount(entry).fs.sync()

    def sync(self) -> None:
        self._sys()
        for mount in self._mounts.values():
            mount.fs.sync()

    def ioctl(self, fd: int, request: int, arg: object = None) -> object:
        self._sys()
        entry = self.fdtable.get(fd)
        return self._fd_mount(entry).fs.ioctl(entry.ino, request, arg)

    # xattrs ----------------------------------------------------------------
    def setxattr(self, path: str, key: str, value: bytes, flags: int = 0) -> None:
        self._sys()
        mount, ino, rel, _dtype = self._resolve_entry(path)
        mount.fs.setxattr(ino, key, value, flags)
        self._mark_inode_record(mount, rel, ino)

    def getxattr(self, path: str, key: str) -> bytes:
        self._sys()
        mount, ino, _rel, _dtype = self._resolve_entry(path)
        return mount.fs.getxattr(ino, key)

    def listxattr(self, path: str) -> List[str]:
        self._sys()
        mount, ino, _rel, _dtype = self._resolve_entry(path)
        return mount.fs.listxattr(ino)

    def removexattr(self, path: str, key: str) -> None:
        self._sys()
        mount, ino, rel, _dtype = self._resolve_entry(path)
        mount.fs.removexattr(ino, key)
        self._mark_inode_record(mount, rel, ino)
