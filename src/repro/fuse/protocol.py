"""The message protocol spoken over the simulated ``/dev/fuse``."""

from __future__ import annotations

import enum
from typing import Any, NamedTuple, Tuple


class FuseOp(enum.Enum):
    """Request opcodes (the subset of the FUSE protocol MCFS exercises)."""

    # members are singletons, so identity hashing is correct -- and much
    # cheaper than Enum's name-based hash on the per-message dispatch path
    __hash__ = object.__hash__

    LOOKUP = "lookup"
    GETATTR = "getattr"
    SETATTR = "setattr"
    READDIR = "readdir"
    READDIRPLUS = "readdirplus"
    CREATE = "create"
    MKDIR = "mkdir"
    UNLINK = "unlink"
    RMDIR = "rmdir"
    RENAME = "rename"
    LINK = "link"
    SYMLINK = "symlink"
    READLINK = "readlink"
    READ = "read"
    WRITE = "write"
    TRUNCATE = "truncate"
    STATFS = "statfs"
    SETXATTR = "setxattr"
    GETXATTR = "getxattr"
    LISTXATTR = "listxattr"
    REMOVEXATTR = "removexattr"
    IOCTL = "ioctl"
    FSYNC = "fsync"
    DESTROY = "destroy"


class FuseRequest(NamedTuple):
    """One kernel -> userspace request.

    ``args`` is the positional argument tuple of the server callback
    ``op`` names, so dispatch is a plain ``method(*args)``.
    """

    op: FuseOp
    args: Tuple[Any, ...] = ()
    unique: int = 0  # request id, mirrors the real protocol's unique field
