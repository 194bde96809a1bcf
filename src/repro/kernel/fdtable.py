"""Open-file-descriptor table.

Open descriptors are *kernel* state: this is why the paper's MCFS cannot
issue a bare ``write`` in isolation when it unmounts between operations
(the fd would not survive the unmount), forcing the meta-operations
``create_file`` and ``write_file`` that open, act, and close in one step
(section 4).  The table enforces that invariant: unmounting with open
descriptors fails with ``EBUSY``, like the real kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import EBADF, EMFILE, FsError

# Open flags, matching <fcntl.h>.
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_ACCMODE = 0o3
O_CREAT = 0o100
O_EXCL = 0o200
O_TRUNC = 0o1000
O_APPEND = 0o2000
O_DIRECTORY = 0o200000


@dataclass
class OpenFile:
    """One open file description (shared position, flags, target inode)."""

    fd: int
    mount_id: int
    ino: int
    flags: int
    offset: int = 0
    path: str = ""  # the path used at open time (for reports only)
    #: fully-resolved fs-relative path, maintained by the kernel so
    #: fd-based writes can feed the mount's dirty-path tracking; renames
    #: of an ancestor rewrite it
    dirty_rel: str = ""

    @property
    def readable(self) -> bool:
        return (self.flags & O_ACCMODE) in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        return (self.flags & O_ACCMODE) in (O_WRONLY, O_RDWR)

    @property
    def append(self) -> bool:
        return bool(self.flags & O_APPEND)


class FDTable:
    """Allocates and tracks file descriptors (lowest-free-fd semantics)."""

    def __init__(self, max_fds: int = 1024):
        self.max_fds = max_fds
        self._open: Dict[int, OpenFile] = {}

    def allocate(self, mount_id: int, ino: int, flags: int, path: str = "") -> OpenFile:
        fd = self._lowest_free_fd()
        entry = OpenFile(fd, mount_id, ino, flags, 0, path)
        self._open[fd] = entry
        return entry

    def get(self, fd: int) -> OpenFile:
        entry = self._open.get(fd)
        if entry is None:
            raise FsError(EBADF, f"fd {fd} is not open")
        return entry

    def close(self, fd: int) -> OpenFile:
        entry = self._open.pop(fd, None)
        if entry is None:
            raise FsError(EBADF, f"fd {fd} is not open")
        return entry

    def open_fds_for_mount(self, mount_id: int):
        return [entry for entry in self._open.values() if entry.mount_id == mount_id]

    def open_count(self) -> int:
        return len(self._open)

    def _lowest_free_fd(self) -> int:
        # fds 0-2 are reserved for the imaginary stdio of the test process.
        for fd in range(3, self.max_fds):
            if fd not in self._open:
                return fd
        raise FsError(EMFILE, "file-descriptor table full")
