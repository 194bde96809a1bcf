"""The simulated ``/dev/fuse`` channel.

A :class:`FuseConnection` couples the kernel-side FUSE driver to a
userspace server process.  Every request/reply round trip charges
:data:`repro.clock.Cost.FUSE_ROUNDTRIP` to the clock -- the user/kernel
message-passing overhead the paper's Figure 1 depicts for fuse-ext2.

The connection also carries the *notify* path (userspace -> kernel):
``notify_inval_entry`` and ``notify_inval_inode``, the APIs whose absence
caused VeriFS1's ghost-EEXIST bug (section 6).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.clock import Cost, SimClock
from repro.errors import EIO, FsError
from repro.fuse.protocol import FuseOp, FuseRequest


class FuseConnection:
    """One mounted FUSE channel between a kernel and a server process."""

    #: device node this connection represents; checked by the CRIU-like
    #: process snapshotter, which refuses character devices.
    device_path = "/dev/fuse"
    is_character_device = True

    def __init__(self, clock: SimClock):
        self.clock = clock
        self.server = None  # set by FuseServerProcess.attach
        self.kernel = None  # set by the kernel driver at mount time
        self.mount_id: Optional[int] = None
        self.requests_sent = 0
        self.notifications_sent = 0
        self._next_unique = 1

    # ----------------------------------------------------------- kernel side --
    def send_dict(self, op: FuseOp, args: Tuple[Any, ...]):
        """Send a request to the userspace server and return its reply.

        ``args`` is the callback's positional argument tuple (the name is
        historical: it once carried a kwargs dict), which the server
        unpacks straight into the method call.  Failures come back as
        raised :class:`FsError`, mirroring how the real kernel driver
        turns negative reply codes into errno results.
        """
        server = self.server
        if server is None:
            raise FsError(EIO, "FUSE connection has no server (transport endpoint)")
        request = FuseRequest(op, args, self._next_unique)
        self._next_unique += 1
        self.requests_sent += 1
        # hand-inlined clock.charge: one round trip per message, and the
        # constant is non-negative by construction
        clock = self.clock
        clock.now += Cost.FUSE_ROUNDTRIP
        try:
            clock.by_category["fuse-transport"] += Cost.FUSE_ROUNDTRIP
        except KeyError:
            clock.by_category["fuse-transport"] = Cost.FUSE_ROUNDTRIP
        return server.handle(request)

    # -------------------------------------------------------- userspace side --
    def attach_kernel(self, kernel, mount_id: int) -> None:
        self.kernel = kernel
        self.mount_id = mount_id

    def detach_kernel(self) -> None:
        self.kernel = None
        self.mount_id = None

    def notify_inval_entry(self, parent_ino: int, name: str) -> None:
        """fuse_lowlevel_notify_inval_entry: drop one kernel dentry."""
        if self.kernel is not None and self.mount_id is not None:
            self.notifications_sent += 1
            self.kernel.invalidate_entry(self.mount_id, parent_ino, name)

    def notify_inval_inode(self, ino: int) -> None:
        """fuse_lowlevel_notify_inval_inode: drop kernel state for an inode."""
        if self.kernel is not None and self.mount_id is not None:
            self.notifications_sent += 1
            self.kernel.invalidate_inode(self.mount_id, ino)

    def notify_inval_all(self) -> None:
        """Invalidate every kernel-cached entry of this mount (used by the
        VeriFS restore path, which changes the whole namespace at once)."""
        if self.kernel is not None and self.mount_id is not None:
            self.notifications_sent += 1
            self.kernel.invalidate_mount_caches(self.mount_id)
