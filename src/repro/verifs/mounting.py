"""Convenience wiring for mounting a VeriFS instance into a kernel.

Assembles the full FUSE stack the paper's Figure 1 shows for VeriFS:
userspace file system -> server process -> /dev/fuse connection ->
kernel FUSE driver -> mount table entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fuse.connection import FuseConnection
from repro.fuse.kernel_driver import FuseKernelFileSystemType
from repro.fuse.server import FuseServerProcess
from repro.kernel.kernel import Kernel
from repro.kernel.vfs import Mount


@dataclass
class VeriFSMount:
    """Everything created by :func:`mount_verifs`."""

    filesystem: object
    server: FuseServerProcess
    connection: FuseConnection
    fstype: FuseKernelFileSystemType
    mount: Mount
    mountpoint: str


def mount_verifs(kernel: Kernel, filesystem, mountpoint: str,
                 name: str = "verifs") -> VeriFSMount:
    """Serve ``filesystem`` over a fresh FUSE connection and mount it.

    ``filesystem`` is a :class:`~repro.verifs.common.VeriFSBase` instance
    (VeriFS1 or VeriFS2).  Its clock is aligned with the kernel's if it
    was constructed without one.
    """
    if getattr(filesystem, "clock", None) is None:
        filesystem.clock = kernel.clock
    connection = FuseConnection(kernel.clock)
    server = FuseServerProcess(filesystem, connection,
                               name=f"{name}-daemon")
    fstype = FuseKernelFileSystemType(connection, name=name)
    mount = kernel.mount(fstype, None, mountpoint)
    return VeriFSMount(
        filesystem=filesystem,
        server=server,
        connection=connection,
        fstype=fstype,
        mount=mount,
        mountpoint=mountpoint,
    )
