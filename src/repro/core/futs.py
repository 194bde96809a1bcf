"""File-system-under-test handles: the mechanics behind the strategies.

A :class:`FilesystemUnderTest` bundles one mounted file system with its
kernel, device, and (optionally) userspace server, and exposes the
operations a checkpoint strategy needs: disk snapshots, remounts, the
VeriFS ioctls, process dumps, and whole-VM copies.

Every FUT owns its own simulated kernel (one "VM" per file system, all
sharing one clock), which keeps VM-snapshot semantics clean and mirrors
how the checkpoint strategies isolate per-fs state.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional

from repro.clock import Cost, SimClock
from repro.core.abstraction import (
    AbstractionOptions,
    AbstractionToken,
    EntryCache,
    cacheable_options,
    collect_entries,
    hash_entries,
)
from repro.errors import FsError
from repro.kernel.kernel import Kernel
from repro.kernel.stat import StatVFS
from repro.storage.device import DiskSnapshot
from repro.verifs.common import IOCTL_CHECKPOINT, IOCTL_RESTORE
from repro.verifs.mounting import VeriFSMount, mount_verifs


def _hash_variants(records, variants) -> tuple:
    return tuple([hash_entries(records, variant) for variant in variants])


class FilesystemUnderTest:
    """One file system registered with MCFS."""

    def __init__(
        self,
        label: str,
        kernel: Kernel,
        mountpoint: str,
        fstype=None,
        device=None,
        verifs: Optional[VeriFSMount] = None,
    ):
        self.label = label
        self.kernel = kernel
        self.mountpoint = mountpoint
        self.fstype = fstype
        self.device = device
        self.verifs = verifs
        self.remount_count = 0
        #: pre-refactor behaviour: bytes-image snapshots charged per used
        #: byte (the paper's measured system; Figure 2 runs in this mode)
        self.legacy_snapshots = False
        #: when True (set by MCFS when the abstraction options allow it),
        #: abstract-state walks go through the incremental EntryCache
        self.incremental_abstraction = False
        self._entry_cache: Optional[EntryCache] = None
        #: disk snapshots taken; with the device size this gives the
        #: *logical* snapshot volume a full-copy checkpointer would pay
        self.snapshot_count = 0
        #: cached mountpoint fd for the state ioctls -- the checker keeps
        #: it open across checkpoints, as the real MCFS does, instead of
        #: paying an open/ioctl/close triple per call.  Must be released
        #: before anything unmounts (the kernel refuses EBUSY otherwise).
        self._ioctl_fd: Optional[int] = None

    # ------------------------------------------------------------- basics --
    @property
    def clock(self) -> SimClock:
        return self.kernel.clock

    @property
    def special_paths(self):
        return self.fstype.special_paths if self.fstype is not None else ()

    def statfs(self) -> StatVFS:
        return self.kernel.statfs(self.mountpoint)

    def sync(self) -> None:
        self.kernel.mount_at(self.mountpoint).fs.sync()

    def abstract_state(
        self, options: AbstractionOptions, incremental: Optional[bool] = None
    ) -> str:
        return hash_entries(self.collect_entries(options, incremental), options)

    def _use_cache(
        self, options: AbstractionOptions, incremental: Optional[bool]
    ) -> bool:
        use_cache = (
            self.incremental_abstraction if incremental is None else incremental
        )
        return use_cache and cacheable_options(options)

    def _live_cache(self, options: AbstractionOptions) -> EntryCache:
        cache = self._entry_cache
        if cache is not None and cache.options is options:
            return cache  # identity fast path: the engine reuses one options object
        if cache is None or cache.options != options:
            self._entry_cache = EntryCache(options)  # det-lint: allow[restore-blind] paired surface: the engine checkpoints/restores this cache via snapshot_abstraction/restore_abstraction
        return self._entry_cache

    def collect_entries(
        self, options: AbstractionOptions, incremental: Optional[bool] = None
    ):
        """Collect entry records, incrementally when allowed.

        ``incremental=None`` follows the FUT's configured default;
        ``True``/``False`` force the mode (the equivalence property test
        uses this to compare both paths on the same state).  The
        incremental path returns an immutable tuple (safe to hold across
        later refreshes); the full walk returns a fresh list.
        """
        if self._use_cache(options, incremental):
            cache = self._live_cache(options)
            mount = self.kernel.mount_at(self.mountpoint)
            return cache.refresh(self.kernel, self.mountpoint, mount)
        return collect_entries(self.kernel, self.mountpoint, options)

    def entries_digests(
        self,
        options: AbstractionOptions,
        matching: AbstractionOptions,
        incremental: Optional[bool] = None,
        profile=None,
    ):
        """``(records, hash(options), hash(matching))`` in one walk.

        The engine's hot path: when ``matching`` is ``options`` the
        incremental route keeps the records inside the cache
        (``records`` comes back ``None``) and the hash resumes from its
        Merkle prefix checkpoints -- call :meth:`collect_entries`
        afterwards for the records, it costs no further syscalls.  The
        full-walk route, taken for uncacheable options and for a
        ``matching`` variant that differs from ``options``, collects
        once, hashes each variant, and returns the records it held
        anyway.
        """
        same = matching is options or matching == options
        if same and self._use_cache(options, incremental):
            cache = self._entry_cache
            if cache is None or cache.options is not options:
                cache = self._live_cache(options)
            kernel = self.kernel
            digest = cache.digest(kernel, self.mountpoint,
                                  kernel.mount_at(self.mountpoint), profile)
            return (None, digest, digest)
        variants = (options,) if same else (options, matching)
        if profile is not None:
            records = profile.timed("abstraction_syscall", collect_entries,
                                    self.kernel, self.mountpoint, options)
            hashes = profile.timed("abstraction_hash", _hash_variants,
                                   records, variants)
        else:
            records = collect_entries(self.kernel, self.mountpoint, options)
            hashes = _hash_variants(records, variants)
        return (records, hashes[0], hashes[-1])

    # ------------------------------------------------- abstraction cache --
    def snapshot_abstraction(self) -> Optional[AbstractionToken]:
        """Capture the incremental cache + pending dirty state (or None
        when no cache is live)."""
        if self._entry_cache is None:
            return None
        mount = self.kernel.mount_at(self.mountpoint)
        return self._entry_cache.snapshot(mount)

    def restore_abstraction(self, token: Optional[AbstractionToken]) -> None:
        """Reinstate a captured cache after a rollback.

        ``token=None`` means the rollback was inexact (or predates the
        cache): distrust everything and force a full re-walk.
        """
        mount = self.kernel.mount_at(self.mountpoint)
        cache = self._entry_cache
        if (
            token is None
            or cache is None
            or (token.options is not cache.options
                and token.options != cache.options)
        ):
            mount.mark_fully_dirty()
            if cache is not None:
                cache.invalidate()  # the next refresh re-walks
            return
        cache.restore(token, mount)

    def check_consistency(self) -> List[str]:
        return self.kernel.mount_at(self.mountpoint).fs.check_consistency()

    # ------------------------------------------------------ remount / disk --
    def remount(self) -> None:
        """Unmount + mount: the only full cache-coherency guarantee."""
        self.release_ioctl_fd()
        self.kernel.remount(self.mountpoint)
        self.remount_count += 1

    @property
    def logical_snapshot_bytes(self) -> int:
        """Bytes a full-copy checkpointer would have copied so far."""
        if self.device is None:
            return 0
        return self.snapshot_count * self.device.size_bytes

    def _used_bytes(self) -> int:
        usage = self.kernel.mount_at(self.mountpoint).fs.statfs()
        return max(0, usage.bytes_total - usage.bytes_free)

    def _charge_state_tracking(self) -> None:
        self.clock.charge(
            Cost.STATE_TRACK_FIXED
            + self._used_bytes() * Cost.STATE_TRACK_PER_BYTE,
            "state-tracking",
        )

    def snapshot_disk(self):
        """Checkpoint the device: a COW chunk-table grab by default.

        The copy-on-write grab is charged a fixed cost plus a per-byte
        cost for only the chunks dirtied since the parent checkpoint --
        the DFS stack of checkpoints is a chain of deltas.  In ``legacy_snapshots``
        mode (the paper's measured system) the whole image is copied and
        charged per *used* byte instead.
        """
        if self.device is None:
            raise FsError(19, f"{self.label} has no backing device")  # ENODEV
        self.snapshot_count += 1
        if self.legacy_snapshots:
            # copying the live content into the checker's state store costs
            # real memory bandwidth -- the cost VeriFS's in-memory ioctls dodge
            self._charge_state_tracking()
            return self.device.snapshot_image()
        self.clock.charge(
            Cost.COW_SNAPSHOT_FIXED
            + self.device.dirty_bytes_since_snapshot * Cost.STATE_TRACK_PER_BYTE,
            "state-tracking",
        )
        return self.device.snapshot_chunks()

    def restore_disk(self, token, remount: bool) -> None:
        """Roll the device back (COW snapshot or raw image), optionally
        remounting around it.

        ``remount=False`` is the deliberately broken §3.2 mode: the image
        changes under the live mount and every cache above it goes stale.
        """
        if not isinstance(token, DiskSnapshot):
            # legacy image restore: charged per used byte, measured while
            # the mount is still live (as the pre-COW implementation did)
            self._charge_state_tracking()
        if remount:
            self.release_ioctl_fd()
            self.kernel.umount(self.mountpoint)
            self._apply_disk_token(token)
            self.kernel.mount(self.fstype, self.device, self.mountpoint)
            self.remount_count += 1
        else:
            self._apply_disk_token(token)

    def _apply_disk_token(self, token) -> None:
        if isinstance(token, DiskSnapshot):
            changed = self.device.restore_snapshot(token)
            self.clock.charge(
                Cost.COW_RESTORE_FIXED + changed * Cost.STATE_TRACK_PER_BYTE,
                "state-tracking",
            )
        else:
            self.device.restore_image(token)
        # if a mount is still live above us (remount=False), its view
        # of the device just changed wholesale
        try:
            self.kernel.mount_at(self.mountpoint).mark_fully_dirty()
        except FsError:
            pass  # restore between umount and mount: fresh mount is dirty anyway

    # ------------------------------------------------------------- ioctls --
    def _root_ioctl(self, request: int, arg) -> None:
        if self._ioctl_fd is None:
            self._ioctl_fd = self.kernel.open(self.mountpoint)
        self.kernel.ioctl(self._ioctl_fd, request, arg)

    def release_ioctl_fd(self) -> None:
        """Close the cached ioctl fd so the mountpoint can be unmounted."""
        if self._ioctl_fd is not None:
            fd, self._ioctl_fd = self._ioctl_fd, None
            try:
                self.kernel.close(fd)
            except FsError:
                pass  # fd table already torn down (e.g. VM rollback)

    def ioctl_checkpoint(self, key: int) -> None:
        self._root_ioctl(IOCTL_CHECKPOINT, key)

    def ioctl_restore(self, key: int) -> None:
        self._root_ioctl(IOCTL_RESTORE, key)
        # the whole fs state was swapped underneath the kernel; the
        # dirty-path tracking knows nothing about it (the checkpoint
        # strategy reinstates its abstraction token when the restore is
        # known to be exact)
        self.kernel.mount_at(self.mountpoint).mark_fully_dirty()

    # --------------------------------------------------- userspace process --
    def userspace_server(self):
        return self.verifs.server if self.verifs is not None else None

    @staticmethod
    def is_device_path(path: str) -> bool:
        return path.startswith("/dev/")

    def invalidate_kernel_caches(self) -> None:
        mount = self.kernel.mount_at(self.mountpoint)
        self.kernel.invalidate_mount_caches(mount.mount_id)

    # ------------------------------------------------- VFS-level checkpoint --
    def vfs_checkpoint(self):
        """The §7 future work realised: a VFS-level checkpoint API.

        Captures the device state *and* the mounted driver's in-memory
        state (caches, bitmaps, tables) in one coherent unit -- what the
        paper hopes to add "at the Linux VFS level [to] apply to many
        Linux kernel file systems".  No remount needed: restore brings
        memory and disk back together and invalidates kernel caches.

        The data plane rides the COW device snapshot (a chunk-table grab,
        one reference per group); only the driver's in-memory tables are
        deep-copied, with the device and clock pinned out of the copy.
        """
        if self.device is None:
            raise FsError(19, f"{self.label}: VFS checkpoint needs a device")
        self.clock.charge(Cost.VFS_CHECKPOINT, "vfs-checkpoint")
        mount = self.kernel.mount_at(self.mountpoint)
        memo = {id(self.clock): self.clock, id(self.device): self.device}
        return {
            "image": self.snapshot_disk(),
            "driver": copy.deepcopy(mount.fs, memo),
        }

    def vfs_restore(self, token) -> None:
        self.clock.charge(Cost.VFS_RESTORE, "vfs-checkpoint")
        self.restore_disk(token["image"], remount=False)
        mount = self.kernel.mount_at(self.mountpoint)
        memo = {id(self.clock): self.clock, id(self.device): self.device}
        mount.fs = copy.deepcopy(token["driver"], memo)
        # the kernel's dentry cache may describe the rolled-back future
        self.kernel.invalidate_mount_caches(mount.mount_id)

    # -------------------------------------------------------- VM snapshots --
    def vm_snapshot(self) -> Dict[str, Any]:
        """Deep-copy the whole 'VM': kernel, device, userspace server.

        The shared clock is pinned so copies do not fork time.
        """
        # close the cached ioctl fd first so the copied kernel's fd table
        # holds no descriptor this FUT object does not track
        self.release_ioctl_fd()
        memo = {id(self.clock): self.clock}
        # one deepcopy call so objects shared between the kernel, device
        # and server (e.g. the FUSE connection) stay shared in the copy
        return copy.deepcopy(
            {"kernel": self.kernel, "device": self.device, "verifs": self.verifs},
            memo,
        )

    def vm_restore(self, image: Dict[str, Any]) -> None:
        self.release_ioctl_fd()  # belongs to the kernel being replaced
        memo = {id(self.clock): self.clock}
        restored = copy.deepcopy(image, memo)
        self.kernel = restored["kernel"]
        self.device = restored["device"]
        self.verifs = restored["verifs"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FilesystemUnderTest({self.label!r} at {self.mountpoint})"


def make_block_fut(
    label: str,
    fstype,
    device,
    clock: SimClock,
    mountpoint: Optional[str] = None,
    format_device: bool = True,
) -> FilesystemUnderTest:
    """Build a FUT for a block (or MTD) file system on its own kernel."""
    mountpoint = mountpoint or f"/mnt/{label}"
    kernel = Kernel(clock)
    if format_device:
        fstype.mkfs(device)
    kernel.mount(fstype, device, mountpoint)
    return FilesystemUnderTest(
        label=label, kernel=kernel, mountpoint=mountpoint,
        fstype=fstype, device=device,
    )


def make_verifs_fut(
    label: str,
    filesystem,
    clock: SimClock,
    mountpoint: Optional[str] = None,
) -> FilesystemUnderTest:
    """Build a FUT for a VeriFS instance served over simulated FUSE."""
    mountpoint = mountpoint or f"/mnt/{label}"
    kernel = Kernel(clock)
    if getattr(filesystem, "clock", None) is None:
        filesystem.clock = clock
    verifs = mount_verifs(kernel, filesystem, mountpoint, name=label)
    return FilesystemUnderTest(
        label=label, kernel=kernel, mountpoint=mountpoint,
        fstype=verifs.fstype, verifs=verifs,
    )
