"""Shared fixtures: clocks, kernels, and a parametrized "any file system".

The ``mounted_fs`` fixture mounts each of the six file systems (ext2,
ext4, xfs, jffs2, verifs1, verifs2) behind one kernel so POSIX-surface
tests run against every implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.clock import SimClock
from repro.fs import (
    Ext2FileSystemType,
    Ext4FileSystemType,
    Jffs2FileSystemType,
    XfsFileSystemType,
)
from repro.kernel import Kernel
from repro.mc.explorer import Explorer
from repro.storage import RAMBlockDevice
from repro.storage.mtd import MTDDevice
from repro.verifs import VeriFS1, VeriFS2
from repro.verifs.mounting import mount_verifs

SMALL_DEV = 256 * 1024
XFS_DEV = 16 * 1024 * 1024


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def kernel(clock) -> Kernel:
    return Kernel(clock)


@dataclass
class MountedFixture:
    """Everything a POSIX-surface test needs about one mounted fs."""

    name: str
    kernel: Kernel
    clock: SimClock
    mountpoint: str
    fstype: object
    device: object = None
    filesystem: object = None  # the userspace fs object (VeriFS only)

    @property
    def is_block(self) -> bool:
        return self.device is not None

    @property
    def supports_links(self) -> bool:
        return self.name != "verifs1"

    @property
    def supports_xattrs(self) -> bool:
        return self.name != "verifs1"

    def path(self, rel: str) -> str:
        return self.mountpoint + rel

    def fs(self):
        return self.kernel.mount_at(self.mountpoint).fs


def _mount(name: str, clock: SimClock) -> MountedFixture:
    kernel = Kernel(clock)
    mountpoint = f"/mnt/{name}"
    if name == "ext2":
        fstype, device = Ext2FileSystemType(), RAMBlockDevice(SMALL_DEV, clock=clock, name="ram0")
    elif name == "ext4":
        fstype, device = Ext4FileSystemType(), RAMBlockDevice(SMALL_DEV, clock=clock, name="ram0")
    elif name == "xfs":
        fstype, device = XfsFileSystemType(), RAMBlockDevice(XFS_DEV, clock=clock, name="ram0")
    elif name == "jffs2":
        fstype, device = Jffs2FileSystemType(), MTDDevice(SMALL_DEV, clock=clock, name="mtd0")
    elif name in ("verifs1", "verifs2"):
        filesystem = VeriFS1(clock=clock) if name == "verifs1" else VeriFS2(clock=clock)
        mounted = mount_verifs(kernel, filesystem, mountpoint, name=name)
        return MountedFixture(
            name=name, kernel=kernel, clock=clock, mountpoint=mountpoint,
            fstype=mounted.fstype, filesystem=filesystem,
        )
    else:  # pragma: no cover - fixture misuse
        raise ValueError(name)
    fstype.mkfs(device)
    kernel.mount(fstype, device, mountpoint)
    return MountedFixture(
        name=name, kernel=kernel, clock=clock, mountpoint=mountpoint,
        fstype=fstype, device=device,
    )


ALL_FS = ["ext2", "ext4", "xfs", "jffs2", "verifs1", "verifs2"]
BLOCK_FS = ["ext2", "ext4", "xfs", "jffs2"]


@pytest.fixture(params=ALL_FS)
def mounted_fs(request, clock) -> MountedFixture:
    return _mount(request.param, clock)


@pytest.fixture(params=BLOCK_FS)
def mounted_block_fs(request, clock) -> MountedFixture:
    return _mount(request.param, clock)


@pytest.fixture
def expansions(monkeypatch):
    """Every (state, depth) the DFS expanded, in order: what reached
    ``Explorer._enter``, the search loop's one expansion seam, inside the
    depth bound."""
    expanded, real = [], Explorer._enter

    def counting(self, stack, state, depth, sleep):
        if depth < self.max_depth:
            expanded.append((state, depth))
        return real(self, stack, state, depth, sleep)

    monkeypatch.setattr(Explorer, "_enter", counting)
    return expanded


@pytest.fixture
def mount_factory(clock):
    """Build arbitrary named mounts on demand: ``mount_factory("ext2")``."""

    def factory(name: str) -> MountedFixture:
        return _mount(name, clock)

    return factory
