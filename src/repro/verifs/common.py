"""Shared VeriFS machinery: ioctl codes, the snapshot pool, base class."""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from repro.clock import Cost
from repro.errors import EEXIST, EINVAL, ENOENT, ENOTTY, FsError
from repro.fuse.server import FuseFileSystem
from repro.kernel.stat import (
    DT_DIR,
    DT_LNK,
    DT_REG,
    Dirent,
    S_IFDIR,
    S_IFLNK,
    S_IFMT,
    S_IFREG,
    StatResult,
)
from repro.verifs.bugs import VeriFSBug

# ioctl request numbers for the proposed state APIs (section 5).
IOCTL_CHECKPOINT = 0xC0DE0001
IOCTL_RESTORE = 0xC0DE0002
# introspection ioctl used by tests: returns the snapshot pool's key set
IOCTL_LIST_SNAPSHOTS = 0xC0DE0003


class SnapshotPool:
    """Keyed pool of whole-file-system state snapshots.

    ``ioctl_CHECKPOINT`` stores an independent copy of the state under a
    64-bit key; ``ioctl_RESTORE`` pops it.  Restore *discards* the
    snapshot, as the paper specifies -- a model checker re-checkpoints
    whenever it may revisit a state.

    ``clone`` customises how the copy is taken.  The default is
    ``copy.deepcopy`` (always correct, never fast); the VeriFS
    implementations supply type-specialised cloners that copy exactly
    the mutable containers their state holds, which is what keeps the
    ioctl checkpoint path off the explorer's critical-path flame graph.
    A cloner must return state that shares no *mutable* structure with
    its input.
    """

    def __init__(self, clone: Optional[Callable[[Any], Any]] = None):
        self._snapshots: Dict[int, Any] = {}
        self._clone = clone if clone is not None else copy.deepcopy

    def store(self, key: int, state: Any) -> None:
        self._snapshots[key] = self._clone(state)

    def pop(self, key: int) -> Any:
        if key not in self._snapshots:
            raise FsError(ENOENT, f"no snapshot under key {key:#x}")
        return self._snapshots.pop(key)

    def peek(self, key: int) -> Any:
        if key not in self._snapshots:
            raise FsError(ENOENT, f"no snapshot under key {key:#x}")
        return self._clone(self._snapshots[key])

    def keys(self) -> List[int]:
        return sorted(self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)


class VeriFSBase(FuseFileSystem):
    """Common VeriFS behaviour: bug flags, the checkpoint/restore ioctls."""

    ROOT_INO = 1

    def __init__(self, bugs: Iterable[VeriFSBug] = (), clock=None):
        super().__init__()
        self.bugs: Set[VeriFSBug] = set(bugs)
        self.clock = clock
        self.snapshots = SnapshotPool(clone=self._clone_state)
        self.checkpoint_count = 0
        self.restore_count = 0
        #: inode objects mutated (or created) since the last checkpoint --
        #: the only ones a checkpoint still needs to seal.  Everything
        #: else in the table is already frozen by an earlier snapshot and
        #: stays frozen: the copy-on-write rule is that a sealed inode is
        #: never mutated in place, only replaced by a writable clone.
        self._fresh: List[Any] = []

    def _seal_fresh(self) -> None:
        """Freeze every inode touched since the last checkpoint.

        After this, the live table can be shared structurally with the
        snapshot pool: any future mutation goes through the subclass's
        ``_writable`` helper, which clones a sealed inode before the
        first write to it.  This is what makes ``IOCTL_CHECKPOINT``
        O(dirty-since-last-checkpoint) instead of O(file system).
        """
        for inode in self._fresh:
            inode.shared = True
        self._fresh.clear()

    def has_bug(self, bug: VeriFSBug) -> bool:
        return bug in self.bugs

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _charge(self, seconds: float, category: str) -> None:
        if self.clock is not None:
            self.clock.charge(seconds, category)

    # ------------------------------------------------- state capture hooks --
    def _capture_state(self) -> Dict[str, Any]:
        """Return the complete mutable state (overridden by subclasses)."""
        raise NotImplementedError

    def _restore_state(self, state: Dict[str, Any]) -> None:
        """Replace the complete mutable state (overridden by subclasses)."""
        raise NotImplementedError

    def _clone_state(self, state: Dict[str, Any]) -> Dict[str, Any]:
        """Independent copy of a captured state (overridden for speed)."""
        return copy.deepcopy(state)

    # --------------------------------------------------------------- ioctls --
    def ioctl(self, ino: int, request: int, arg: object = None) -> object:
        """The proposed state APIs, exposed exactly as the paper does.

        ``IOCTL_CHECKPOINT``: lock, deep-copy inodes and file data into the
        snapshot pool under the 64-bit key in ``arg``, unlock.

        ``IOCTL_RESTORE``: look up the key, lock, restore the full state,
        notify the kernel to invalidate its caches, unlock, and discard
        the snapshot.  (The simulation is single-threaded, so "lock" is a
        semantic marker rather than a real mutex.)
        """
        if request == IOCTL_CHECKPOINT:
            key = self._ioctl_key(arg)
            # hand-inlined ``_charge`` (both branches): one ioctl per
            # explored state makes this the hottest charge after the FUSE
            # round trip, and the constants are non-negative by construction
            clock = self.clock
            if clock is not None:
                clock.now += Cost.IOCTL_CHECKPOINT
                try:
                    clock.by_category["verifs-checkpoint"] += Cost.IOCTL_CHECKPOINT
                except KeyError:
                    clock.by_category["verifs-checkpoint"] = Cost.IOCTL_CHECKPOINT
            self.snapshots.store(key, self._capture_state())
            self.checkpoint_count += 1  # det-lint: allow[restore-blind] cumulative observability counter; rewinding it would erase real event history
            return 0
        if request == IOCTL_RESTORE:
            key = self._ioctl_key(arg)
            clock = self.clock
            if clock is not None:
                clock.now += Cost.IOCTL_RESTORE
                try:
                    clock.by_category["verifs-restore"] += Cost.IOCTL_RESTORE
                except KeyError:
                    clock.by_category["verifs-restore"] = Cost.IOCTL_RESTORE
            state = self.snapshots.pop(key)
            self._restore_state(state)
            self.restore_count += 1  # det-lint: allow[restore-blind] cumulative observability counter; rewinding it would erase real event history
            if not self.has_bug(VeriFSBug.MISSING_CACHE_INVALIDATION):
                # The fix for VeriFS1 bug 2: tell the kernel its dentry
                # and inode caches no longer describe this file system.
                if self.connection is not None:
                    self.connection.notify_inval_all()
            return 0
        if request == IOCTL_LIST_SNAPSHOTS:
            return self.snapshots.keys()
        raise FsError(ENOTTY, f"unknown ioctl {request:#x}")

    @staticmethod
    def _ioctl_key(arg: object) -> int:
        if not isinstance(arg, int) or not 0 <= arg < 2**64:
            raise FsError(EINVAL, f"ioctl key must be a 64-bit integer, got {arg!r}")
        return arg

    # ---------------------------------------------------------- shared bits --
    @staticmethod
    def check_name(name: str) -> None:
        if not name or name in (".", "..") or "/" in name:
            raise FsError(EINVAL, f"bad name {name!r}")
        if len(name.encode("utf-8")) > 255:
            raise FsError(EINVAL, "name too long")

    def readdirplus(self, dir_ino: int) -> List[Any]:
        """FUSE READDIRPLUS: entries plus their attributes in one reply.

        Byte-identical to ``readdir`` followed by per-entry ``getattr``
        (both go through the subclass), batched into a single message the
        way the real protocol batches it for ``ls -l``-shaped workloads
        -- the abstraction walk is exactly that shape.
        """
        return [(dirent, self.getattr(dirent.ino))
                for dirent in self.readdir(dir_ino)]

    def fsync(self) -> None:
        """RAM-backed: nothing to flush."""

    def destroy(self) -> None:
        """RAM-backed: unmount keeps state (the daemon stays alive)."""
