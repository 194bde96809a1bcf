"""The kernel-side FUSE driver: a VFS file system backed by a connection.

Every VFS operation becomes a request over the connection.  Note what is
*not* here: the driver keeps no namespace state of its own -- but the
kernel above it caches dentries (positive and negative) exactly as it
does for in-kernel file systems.  That kernel cache is the one a FUSE
file system must explicitly invalidate when its state changes behind the
kernel's back (VeriFS restore), via the connection's notify API.

Each inode operation sends its arguments as the positional tuple of the
server callback it names (``FuseFileSystem.getattr(ino)`` gets
``(ino,)``), straight through ``FuseConnection.send_dict``.  Only the
optional callbacks -- the xattr family and READDIRPLUS -- go through
:meth:`FuseKernelFS._send_capability`, which learns their absence once.
"""

from __future__ import annotations

from typing import List

from repro.errors import ENOSYS, FsError
from repro.fuse.connection import FuseConnection
from repro.fuse.protocol import FuseOp
from repro.kernel.stat import Dirent, StatResult, StatVFS
from repro.kernel.vfs import FileSystemType, MountedFileSystem

# module-level aliases of the opcodes sent on every explored state: a
# global read, where ``FuseOp.X`` is an Enum class-attribute lookup
_LOOKUP = FuseOp.LOOKUP
_GETATTR = FuseOp.GETATTR
_READDIR = FuseOp.READDIR
_CREATE = FuseOp.CREATE
_READ = FuseOp.READ
_WRITE = FuseOp.WRITE
_TRUNCATE = FuseOp.TRUNCATE
_IOCTL = FuseOp.IOCTL


class FuseKernelFileSystemType(FileSystemType):
    """A mountable fs type that proxies to a userspace server."""

    name = "fuse"
    min_device_size = None
    special_paths = ()

    def __init__(self, connection: FuseConnection, name: str = "fuse"):
        self.connection = connection
        self.name = name

    def mkfs(self, device) -> None:
        raise NotImplementedError("FUSE file systems are not formatted by the kernel")

    def mount(self, device, kernel=None) -> "FuseKernelFS":
        return FuseKernelFS(self.connection)


class FuseKernelFS(MountedFileSystem):
    """Mounted FUSE instance: translates inode ops into protocol messages."""

    def __init__(self, connection: FuseConnection):
        self.conn = connection
        #: ops the server answered ENOSYS to once -- permanently absent
        #: callbacks (the fuse_conn ``no_*`` negotiation flags)
        self._absent_ops = set()
        if self.conn.server is not None:
            self.ROOT_INO = self.conn.server.filesystem.ROOT_INO

    def mounted(self, kernel, mount_id: int) -> None:
        # the notify path needs the mount id, which exists only now
        self.conn.attach_kernel(kernel, mount_id)

    def _send_capability(self, op: FuseOp, args: tuple):
        """Send a request for an optional callback.

        The first ENOSYS reply marks the whole capability absent,
        mirroring the real driver's ``fuse_conn->no_listxattr``-style
        flags: a server cannot grow a callback mid-mount, so later calls
        short-circuit in the kernel instead of paying a round trip to
        learn ENOSYS again.
        """
        if op in self._absent_ops:
            # learned on an earlier call: the server has no such callback
            raise FsError(ENOSYS, f"server does not implement {op.value}")
        try:
            return self.conn.send_dict(op, args)
        except FsError as error:
            if error.code == ENOSYS:
                self._absent_ops.add(op)
            raise

    # -- lifecycle ------------------------------------------------------------
    def sync(self) -> None:
        self.conn.send_dict(FuseOp.FSYNC, ())

    def unmount(self) -> None:
        self.conn.send_dict(FuseOp.DESTROY, ())
        self.conn.detach_kernel()

    # -- namespace ------------------------------------------------------------
    def lookup(self, dir_ino: int, name: str) -> int:
        return self.conn.send_dict(_LOOKUP, (dir_ino, name))

    def getattr(self, ino: int) -> StatResult:
        return self.conn.send_dict(_GETATTR, (ino,))

    def getdents(self, dir_ino: int) -> List[Dirent]:
        return self.conn.send_dict(_READDIR, (dir_ino,))

    def getdents_attrs(self, dir_ino: int):
        """One READDIRPLUS round trip; falls back to READDIR + per-entry
        GETATTR against servers without the callback (the reply is
        defined to be byte-identical either way)."""
        try:
            return self._send_capability(FuseOp.READDIRPLUS, (dir_ino,))
        except FsError as error:
            if error.code != ENOSYS:
                raise
        return [(dirent, self.getattr(dirent.ino))
                for dirent in self.getdents(dir_ino)]

    def create(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> int:
        return self.conn.send_dict(_CREATE, (dir_ino, name, mode, uid, gid))

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> int:
        return self.conn.send_dict(FuseOp.MKDIR, (dir_ino, name, mode, uid, gid))

    def unlink(self, dir_ino: int, name: str) -> None:
        return self.conn.send_dict(FuseOp.UNLINK, (dir_ino, name))

    def rmdir(self, dir_ino: int, name: str) -> None:
        return self.conn.send_dict(FuseOp.RMDIR, (dir_ino, name))

    def rename(self, old_dir: int, old_name: str, new_dir: int, new_name: str) -> None:
        return self.conn.send_dict(FuseOp.RENAME,
                                   (old_dir, old_name, new_dir, new_name))

    def link(self, ino: int, dir_ino: int, name: str) -> None:
        return self.conn.send_dict(FuseOp.LINK, (ino, dir_ino, name))

    def symlink(self, dir_ino: int, name: str, target: str, uid: int, gid: int) -> int:
        return self.conn.send_dict(FuseOp.SYMLINK,
                                   (dir_ino, name, target, uid, gid))

    def readlink(self, ino: int) -> str:
        return self.conn.send_dict(FuseOp.READLINK, (ino,))

    # -- data -----------------------------------------------------------------
    def read(self, ino: int, offset: int, length: int) -> bytes:
        return self.conn.send_dict(_READ, (ino, offset, length))

    def write(self, ino: int, offset: int, data: bytes) -> int:
        return self.conn.send_dict(_WRITE, (ino, offset, data))

    def truncate(self, ino: int, size: int) -> None:
        return self.conn.send_dict(_TRUNCATE, (ino, size))

    def setattr(self, ino, mode=None, uid=None, gid=None, atime=None, mtime=None):
        return self.conn.send_dict(FuseOp.SETATTR,
                                   (ino, mode, uid, gid, atime, mtime))

    # -- xattr / misc -----------------------------------------------------------
    def setxattr(self, ino: int, key: str, value: bytes, flags: int = 0) -> None:
        return self._send_capability(FuseOp.SETXATTR, (ino, key, value, flags))

    def getxattr(self, ino: int, key: str) -> bytes:
        return self._send_capability(FuseOp.GETXATTR, (ino, key))

    def listxattr(self, ino: int) -> List[str]:
        return self._send_capability(FuseOp.LISTXATTR, (ino,))

    def removexattr(self, ino: int, key: str) -> None:
        return self._send_capability(FuseOp.REMOVEXATTR, (ino, key))

    def ioctl(self, ino: int, request: int, arg: object = None) -> object:
        return self.conn.send_dict(_IOCTL, (ino, request, arg))

    def statfs(self) -> StatVFS:
        return self.conn.send_dict(FuseOp.STATFS, ())
