"""The tree audit over a live mount: ``check_mounted`` and ``check_consistency``.

:class:`MountedChecker` reads through the ``MountedFileSystem`` interface
only (``getattr``, ``getdents``, and ``lookup`` for ``.``/``..`` where
the backend resolves them), so it runs against every backend -- VeriFS
included; that is ``check_mounted``, the oracle's checker for
device-less FUTs.  Its own check is size-vs-mapped-blocks, a warning
only, since block accounting is FS-specific.

``MountedFileSystem.check_consistency`` runs the same audit over the
source :func:`mounted_checker` picks, which reads what the driver keeps
where the interface would hide a fault or change state: a block
format's records and block map, jffs2's index, and the VeriFS object a
FUSE mount serves, read in place (no FUSE message, no syscall).  The
invariants are :class:`~repro.analysis.fsck.image.TreeChecker`'s.
"""

from __future__ import annotations

from typing import List

from repro.analysis.findings import Finding
from repro.analysis.fsck.image import TreeChecker, TreeInode
from repro.errors import FsError
from repro.fs.base import MountedBlockFileSystem
from repro.fs.jffs2 import MountedJffs2
from repro.fuse.kernel_driver import FuseKernelFS
from repro.kernel.stat import DT_DIR
from repro.verifs.common import VeriFSBase


class MountedChecker(TreeChecker):
    """The tree audit over a live mount's ``getattr`` and ``getdents``."""

    checker = "fsck.vfs"
    dots_stored = False

    def __init__(self, fs):
        super().__init__()
        self.fs, self.root_ino, self.stats = fs, fs.ROOT_INO, {}
        try:
            self.block_size = fs.statfs().block_size
        except (FsError, AttributeError):
            self.block_size = 4096

    def check(self) -> List[Finding]:
        super().check()
        # A mount that cannot stat its root (a stub driver, a FUSE mount
        # whose server is gone) serves no tree to audit; every operation
        # on it fails on its own.
        return self.findings if self.root_ino in self.stats else []

    def _load_inode(self, ino: int):
        try:
            stat = self.stats[ino] = self.fs.getattr(ino)
        except FsError:
            return None
        return TreeInode(ino, stat.st_mode, stat.st_nlink)

    def _read_dir(self, ino: int, inode):
        try:
            entries = [(entry.ino, entry.dtype, entry.name)
                       for entry in self.fs.getdents(ino)]
        except FsError as error:
            self._finding("unreadable-directory",
                          f"getdents on ino {ino} failed: {error}",
                          location=f"ino {ino}")
            return []
        for name in (".", ".."):
            try:
                entries.append((self.fs.lookup(ino, name), DT_DIR, name))
            except FsError:
                pass
        return entries

    def _audit_blocks(self, inode, claims) -> None:
        # Holes map fewer blocks, and backends count up to two metadata
        # blocks (indirect, xattr) into st_blocks: flag clear over-mapping.
        stat, bs = self.stats[inode.ino], self.block_size
        mapped = stat.st_blocks * 512
        if not inode.is_dir and mapped > (-(-stat.st_size // bs) + 2) * bs:
            self._finding("size-vs-blocks",
                          f"ino {inode.ino}: size {stat.st_size} but {mapped} "
                          f"bytes of blocks mapped", severity="warn",
                          location=f"ino {inode.ino}", size=stat.st_size,
                          mapped=mapped)


class MountedBlockChecker(TreeChecker):
    """The audit over a live ext2/ext4/xfs mount's own records, read
    through its caches (``getdents`` would update atime): inodes, the
    stored directory streams with their ``.`` and ``..``, the inode map,
    and every block an inode maps -- in the data area, claimed once, and
    allocated in the block bitmap."""

    checker = "fsck.vfs"

    def __init__(self, fs: MountedBlockFileSystem):
        super().__init__()
        self.fs, self.root_ino = fs, fs.ROOT_INO

    def _load_inode(self, ino: int):
        try:
            return self.fs._load_inode(ino)
        except FsError:
            return None

    def _read_dir(self, ino: int, inode):
        try:
            return self.fs._read_dir_entries(inode)
        except FsError as error:
            self._finding("unreadable-directory",
                          f"directory ino {ino} is unreadable: {error}",
                          location=f"ino {ino}")
            return []

    def _inode_allocated(self, ino: int) -> bool:
        return self.fs._inode_allocated(ino)

    def _audit_blocks(self, inode, claims) -> None:
        geo, ino = self.fs.geo, inode.ino
        try:
            for block in self.fs._mapped_blocks(inode):
                if not geo.first_data_block <= block < geo.block_count:
                    self._finding("block-out-of-range",
                                  f"ino {ino} maps block {block}, outside the "
                                  f"data area [{geo.first_data_block}, "
                                  f"{geo.block_count})", location=f"ino {ino}",
                                  block=block)
                elif block in claims:
                    self._finding("block-multiply-claimed",
                                  f"block {block} multiply claimed (ino "
                                  f"{claims[block]} and ino {ino})",
                                  location=f"block {block}", block=block,
                                  inos=[claims[block], ino])
                else:
                    claims[block] = ino
                    if not self.fs.block_bitmap.get(block):
                        self._finding("block-not-allocated",
                                      f"block {block} (ino {ino}) in use but "
                                      f"free in bitmap", location=f"block {block}",
                                      block=block, ino=ino)
        except FsError as error:
            self._finding("unreadable-block-map",
                          f"ino {ino}: block map unreadable: {error}",
                          location=f"ino {ino}")


class Jffs2MountChecker(MountedChecker):
    """The audit over a live jffs2 mount, whose index also keeps a
    directory map per parent ino: one whose inode is gone must be empty."""

    def check(self) -> List[Finding]:
        for pino, entries in sorted(self.fs._dirs.items()):
            if entries and pino not in self.fs._inodes:
                self._finding("dirents-of-dead-inode",
                              f"directory map for dead inode {pino} is "
                              f"non-empty", location=f"ino {pino}",
                              names=sorted(entries))
        return super().check()


class VeriFSChecker(MountedChecker):
    """The audit over a VeriFS object, read in place: ``getattr`` as it
    serves it, directories from its entry maps (``readdir`` fails on a
    name whose inode is gone; the audit reports the dirent instead).
    VeriFS stores no dtype and no ``.``/``..``."""

    def _read_dir(self, ino: int, inode):
        return [(child, None, name)
                for name, child in self.fs._get(ino).entries.items()]


def mounted_checker(fs) -> TreeChecker:
    """The audit's source for a live mount (see the module docstring)."""
    if isinstance(fs, MountedBlockFileSystem):
        return MountedBlockChecker(fs)
    if isinstance(fs, MountedJffs2):
        return Jffs2MountChecker(fs)
    if isinstance(fs, FuseKernelFS) and fs.conn.server is not None:
        fs = fs.conn.server.filesystem
    if isinstance(fs, VeriFSBase):
        return VeriFSChecker(fs)
    return MountedChecker(fs)


def check_mounted(fs) -> List[Finding]:
    """Audit a live mounted file system; returns structured findings."""
    return MountedChecker(fs).check()
