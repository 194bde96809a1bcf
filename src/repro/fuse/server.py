"""The userspace side of the FUSE stack.

:class:`FuseServerProcess` models the separate process a libFUSE file
system runs in: it owns the :class:`FuseFileSystem` implementation object
(all of its in-memory state), holds the ``/dev/fuse`` character device
open, and dispatches incoming requests to implementation methods.

Because all of the file system's state lives *inside this object*, the
model checker cannot see it from the kernel side -- the paper's
section 3.1 problem.  The process exposes ``memory_image()`` /
``restore_memory_image()`` hooks used by the CRIU-like process
snapshotter, which nevertheless refuses to run when ``open_devices``
contains a character or block device (as CRIU does).
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List

from repro.errors import ENOSYS, FsError
from repro.fuse.connection import FuseConnection
from repro.fuse.protocol import FuseOp, FuseRequest


class FuseFileSystem:
    """Base class for userspace file systems (the libFUSE ops analogue).

    Subclasses implement methods named after :class:`FuseOp` values
    (``lookup``, ``getattr``, ``create``, ...).  Unimplemented operations
    fail with ``ENOSYS``, exactly like a missing libFUSE callback --
    VeriFS1 relies on this for its deliberately limited operation set.
    """

    #: root inode number exported to the kernel driver
    ROOT_INO = 1

    def __init__(self):
        self.connection: FuseConnection = None  # set when served

    def destroy(self) -> None:
        """Called at unmount; subclasses may flush or release resources."""


class FuseServerProcess:
    """The userspace daemon process hosting a FuseFileSystem."""

    def __init__(self, filesystem: FuseFileSystem, connection: FuseConnection,
                 name: str = "fuse-server"):
        self.filesystem = filesystem
        self.connection = connection
        self.name = name
        #: device handles this process keeps open; /dev/fuse is what makes
        #: CRIU refuse to checkpoint FUSE servers (section 5).
        self.open_devices: List[str] = [connection.device_path]
        self.requests_handled = 0
        #: memoized op -> bound method dispatch (None marks a confirmed
        #: missing callback, which keeps failing with ENOSYS per request)
        self._dispatch: Dict[FuseOp, Any] = {}
        connection.server = self
        filesystem.connection = connection

    def handle(self, request: FuseRequest) -> Any:
        """Dispatch one request to the filesystem implementation."""
        self.requests_handled += 1
        try:
            method = self._dispatch[request.op]
        except KeyError:
            method = getattr(self.filesystem, request.op.value, None)
            self._dispatch[request.op] = method
        if method is None:
            raise FsError(ENOSYS, f"{type(self.filesystem).__name__} does not "
                                  f"implement {request.op.value}")
        return method(*request.args)

    # ------------------------------------------------- process snapshotting --
    def memory_image(self) -> Dict[str, Any]:
        """Deep-copy the process's writable memory (CRIU's dump step)."""
        return {"filesystem": copy.deepcopy(self.filesystem.__dict__)}

    def restore_memory_image(self, image: Dict[str, Any]) -> None:
        """Restore a previously dumped memory image (CRIU's restore step)."""
        state = copy.deepcopy(image["filesystem"])
        # The connection is a shared resource (like an inherited fd), not
        # private memory: keep the live one.
        state["connection"] = self.filesystem.connection
        self.filesystem.__dict__.clear()
        self.filesystem.__dict__.update(state)
