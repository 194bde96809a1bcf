"""Checkpoint/restore strategies (section 5's design-space study).

Each strategy captures and restores the *full* state of one file system
under test -- persistent and in-memory -- with a different mechanism and
a different cost profile:

=====================  ======================================================
strategy               mechanism (paper section)
=====================  ======================================================
RemountStrategy        unmount / disk-image copy / remount (§3.2 workaround)
NaiveDiskStrategy      disk-image copy *without* remount -- the broken
                       approach whose corruption motivated everything (§3.2)
IoctlStrategy          VeriFS's ioctl_CHECKPOINT / ioctl_RESTORE (§5)
ProcessSnapshotStrategy CRIU-style process dump; refuses processes holding
                       character/block devices, so FUSE servers fail (§5)
VMSnapshotStrategy     whole-VM snapshot at LightVM latencies (§5)
=====================  ======================================================

Strategies are policy objects: the mechanics live on the file-system-
under-test handle (``repro.core.futs.FilesystemUnderTest``), which the
strategy drives duck-typed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.clock import Cost
from repro.errors import CheckpointUnsupported


class CheckpointStrategy(ABC):
    """Captures/restores one file system's complete state."""

    name = "?"
    #: True when the strategy needs an unmount+remount after every
    #: operation to keep kernel caches coherent with restorable state.
    remounts_between_operations = False

    @abstractmethod
    def checkpoint(self, fut) -> Any:
        """Capture state; return an opaque token for :meth:`restore`."""

    @abstractmethod
    def restore(self, fut, token: Any) -> None:
        """Restore the state captured under ``token``, spending it.

        A token is restored at most once, the paper's ioctl semantics
        (``ioctl_RESTORE`` discards its snapshot): a caller that will
        come back to the same state checkpoints it again.
        """

    def restores_exactly(self, fut) -> bool:
        """Whether :meth:`restore` brings back the checkpointed state
        *exactly* as observed through the syscall surface.

        When True, MCFS may also roll back its incremental abstraction
        cache to the checkpoint instead of re-walking the tree.  The
        deliberately broken strategies (and bug-injected VeriFS, whose
        missing cache invalidation leaves the kernel seeing ghosts)
        answer False so their corruption stays observable.
        """
        return True

    def after_operation(self, fut) -> None:
        """Hook run after every operation (remount-per-op lives here)."""


class RemountStrategy(CheckpointStrategy):
    """The kernel-file-system workaround: remount around every operation.

    Because the fs is remounted after each operation, the on-disk image
    is always complete and coherent, so a checkpoint is just a copy of
    the device image (the paper mmaps the backing store into Spin).
    Restore must unmount, rewrite the image, and mount again -- an
    unmount is the *only* way to guarantee no stale state remains in
    kernel memory (section 3.2).
    """

    name = "remount"
    remounts_between_operations = True

    def checkpoint(self, fut) -> bytes:
        fut.sync()
        return fut.snapshot_disk()

    def restore(self, fut, token: bytes) -> None:
        fut.restore_disk(token, remount=True)

    def after_operation(self, fut) -> None:
        fut.remount()


class NoRemountStrategy(RemountStrategy):
    """RemountStrategy without the per-operation remounts.

    Used by the section 6 ablation ("we also measured MCFS's performance
    without the inter-operation remounts").  Restore still remounts --
    otherwise state restoration would corrupt the fs outright.
    """

    name = "no-remount"
    remounts_between_operations = False

    def after_operation(self, fut) -> None:
        pass


class NaiveDiskStrategy(CheckpointStrategy):
    """Track only the persistent state; never remount.  **Broken.**

    This is the compromise of section 3.2 that "allowed MCFS to run
    without crashing, but our experiments encountered corrupted file
    systems": restoring the disk under a live mount leaves the kernel's
    and the driver's caches describing a different history.  It exists to
    reproduce that corruption, not to be used.
    """

    name = "naive-disk"

    def checkpoint(self, fut) -> bytes:
        fut.sync()
        return fut.snapshot_disk()

    def restore(self, fut, token: bytes) -> None:
        fut.restore_disk(token, remount=False)

    def restores_exactly(self, fut) -> bool:
        # the visible state after restore is a corrupted mix of disk and
        # stale caches; nothing may be reused from before
        return False


class IoctlStrategy(CheckpointStrategy):
    """The paper's proposal: the file system checkpoints itself.

    Uses VeriFS's ``ioctl_CHECKPOINT``/``ioctl_RESTORE``.  No remounts,
    no device traffic; the fs locks itself, copies its in-memory state
    into its snapshot pool, and (on restore) invalidates the kernel's
    caches.
    """

    name = "ioctl"

    def __init__(self):
        self._next_key = 1

    def checkpoint(self, fut) -> int:
        key = self._next_key
        self._next_key += 1
        fut.ioctl_checkpoint(key)
        return key

    def restore(self, fut, token: int) -> None:
        fut.ioctl_restore(token)

    def restores_exactly(self, fut) -> bool:
        server = fut.userspace_server()
        filesystem = getattr(server, "filesystem", None)
        if filesystem is not None and getattr(filesystem, "bugs", None):
            return False  # bug-injected VeriFS may leave stale kernel caches
        return True


class ProcessSnapshotStrategy(CheckpointStrategy):
    """CRIU-style user-space process snapshotting.

    Works for device-free servers (the paper snapshot NFS-Ganesha this
    way) but **refuses** any process with an open character or block
    device -- which includes every FUSE server, since they hold
    ``/dev/fuse``.
    """

    name = "process-snapshot"

    def checkpoint(self, fut) -> Any:
        server = fut.userspace_server()
        if server is None:
            raise CheckpointUnsupported(
                f"{fut.label}: no user-space server process to snapshot"
            )
        blockers = [
            device
            for device in getattr(server, "open_devices", [])
            if fut.is_device_path(device)
        ]
        if blockers:
            raise CheckpointUnsupported(
                f"{fut.label}: CRIU refuses to checkpoint a process with "
                f"open device handles: {', '.join(blockers)}"
            )
        fut.clock.charge(Cost.PROCESS_CHECKPOINT, "process-snapshot")
        return server.memory_image()

    def restore(self, fut, token: Any) -> None:
        server = fut.userspace_server()
        fut.clock.charge(Cost.PROCESS_RESTORE, "process-snapshot")
        server.restore_memory_image(token)
        fut.invalidate_kernel_caches()


class VfsCheckpointStrategy(CheckpointStrategy):
    """The paper's future work, realised in the simulation: a generic
    checkpoint/restore API *at the VFS level* that captures a kernel
    file system's device image and in-memory driver state together.

    Eliminates the mount/remount workaround for kernel file systems:
    restore rewrites the disk, swaps the driver state back in, and
    invalidates the kernel's caches -- coherent by construction.  Still
    pays for device-state tracking, so VeriFS's in-process ioctls remain
    the cheapest mechanism.
    """

    name = "vfs-api"

    def checkpoint(self, fut) -> Any:
        return fut.vfs_checkpoint()

    def restore(self, fut, token: Any) -> None:
        fut.vfs_restore(token)


class VMSnapshotStrategy(CheckpointStrategy):
    """Whole-VM snapshotting at LightVM's latencies.

    Captures everything (kernel, caches, fs, device) by deep-copying the
    object graph, but charges 30 ms per checkpoint and 20 ms per restore
    (the LightVM figures from section 5) -- which caps the checking rate
    at the 20-30 ops/s the paper reports.
    """

    name = "vm-snapshot"

    def checkpoint(self, fut) -> Any:
        fut.clock.charge(Cost.VM_CHECKPOINT, "vm-snapshot")
        return fut.vm_snapshot()

    def restore(self, fut, token: Any) -> None:
        fut.clock.charge(Cost.VM_RESTORE, "vm-snapshot")
        fut.vm_restore(token)
