"""stat(2)-style structures and file-mode constants for the simulated VFS."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

# File type bits (matching POSIX <sys/stat.h>).
S_IFMT = 0o170000
S_IFDIR = 0o040000
S_IFREG = 0o100000
S_IFLNK = 0o120000

# Directory entry types (matching <dirent.h>).
DT_UNKNOWN = 0
DT_DIR = 4
DT_REG = 8
DT_LNK = 10

# setxattr flags (matching <sys/xattr.h>).
XATTR_CREATE = 1
XATTR_REPLACE = 2

_TYPE_NAMES = {S_IFDIR: "dir", S_IFREG: "file", S_IFLNK: "symlink"}


def file_type_name(mode: int) -> str:
    """Human-readable name for the file-type bits of ``mode``."""
    return _TYPE_NAMES.get(mode & S_IFMT, f"type?{mode & S_IFMT:o}")


def mode_to_dtype(mode: int) -> int:
    """Map stat mode bits to a getdents d_type value."""
    kind = mode & S_IFMT
    if kind == S_IFDIR:
        return DT_DIR
    if kind == S_IFREG:
        return DT_REG
    if kind == S_IFLNK:
        return DT_LNK
    return DT_UNKNOWN


class StatResult(NamedTuple):
    """The observable metadata of one inode.

    The fields mirror ``struct stat``.  The MCFS abstraction function
    (Algorithm 1) hashes only the *important* subset -- mode, size, nlink,
    uid, gid -- and deliberately omits timestamps and block placement,
    which vary between file systems without indicating bugs.

    An immutable tuple rather than a frozen dataclass: every ``getattr``
    reply builds one, and a tuple is built in one allocation where a
    frozen dataclass pays an ``object.__setattr__`` per field.
    """

    st_ino: int
    st_mode: int
    st_nlink: int
    st_uid: int
    st_gid: int
    st_size: int
    st_blocks: int
    st_atime: float
    st_mtime: float
    st_ctime: float

    @property
    def is_dir(self) -> bool:
        return (self.st_mode & S_IFMT) == S_IFDIR

    @property
    def is_file(self) -> bool:
        return (self.st_mode & S_IFMT) == S_IFREG

    @property
    def is_symlink(self) -> bool:
        return (self.st_mode & S_IFMT) == S_IFLNK

    def with_updates(self, **changes) -> "StatResult":
        return self._replace(**changes)


class Dirent(NamedTuple):
    """One getdents entry: name, inode number, and entry type (an
    immutable tuple, like :class:`StatResult`)."""

    name: str
    ino: int
    dtype: int


@dataclass(frozen=True)
class StatVFS:
    """statfs(2)-style file-system usage summary."""

    block_size: int
    blocks_total: int
    blocks_free: int
    files_total: int
    files_free: int

    @property
    def bytes_free(self) -> int:
        return self.block_size * self.blocks_free

    @property
    def bytes_total(self) -> int:
        return self.block_size * self.blocks_total
