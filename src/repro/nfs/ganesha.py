"""NFS-Ganesha analogue: a user-space file server CRIU *can* snapshot.

The paper notes that while CRIU refused to checkpoint FUSE file systems
(they hold the ``/dev/fuse`` character device), it successfully
snapshotted the user-space NFS server Ganesha, which talks to its
clients over network sockets.

This module provides exactly that contrast: the same request/dispatch
machinery as the FUSE stack, but over an :class:`NfsConnection` that is
a socket, not a device -- so the CRIU-like
:class:`~repro.mc.strategies.ProcessSnapshotStrategy` accepts it.
"""

from __future__ import annotations

from typing import Optional

from repro.clock import Cost, SimClock
from repro.fuse.connection import FuseConnection
from repro.fuse.kernel_driver import FuseKernelFileSystemType
from repro.fuse.server import FuseServerProcess
from repro.kernel.kernel import Kernel


class NfsConnection(FuseConnection):
    """An RPC channel over TCP: same protocol, but not a device node.

    ``open_devices`` on the server process will list ``tcp:2049`` --
    which is a socket, so the CRIU-like snapshotter does not refuse.
    Round trips cost more than FUSE's (network stack vs. /dev/fuse).
    """

    device_path = "tcp:2049"
    is_character_device = False

    def send_dict(self, op, args):
        # an extra network-ish cost on top of the base dispatch
        # (``send_dict`` is the funnel every message goes through)
        self.clock.charge(Cost.FUSE_ROUNDTRIP, "nfs-transport")
        return super().send_dict(op, args)


class GaneshaLikeServer(FuseServerProcess):
    """The user-space NFS daemon: a server process with no device handles."""

    def __init__(self, filesystem, connection: NfsConnection,
                 name: str = "ganesha"):
        super().__init__(filesystem, connection, name=name)
        # Ganesha exports over sockets; it holds no /dev handles.
        assert all(not dev.startswith("/dev/") for dev in self.open_devices)


def mount_nfs(kernel: Kernel, filesystem, mountpoint: str,
              name: str = "nfs"):
    """Export ``filesystem`` through a Ganesha-like server and mount it.

    Returns ``(server, connection, mount)``.  The backend ``filesystem``
    is any VeriFS-style implementation object; Ganesha's FSAL layer makes
    real Ganesha similarly backend-agnostic.
    """
    if getattr(filesystem, "clock", None) is None:
        filesystem.clock = kernel.clock
    connection = NfsConnection(kernel.clock)
    server = GaneshaLikeServer(filesystem, connection, name=f"{name}-daemon")
    fstype = FuseKernelFileSystemType(connection, name=name)
    mount = kernel.mount(fstype, None, mountpoint)
    return server, connection, mount
