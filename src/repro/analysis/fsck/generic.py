"""The tree audit over a live mount, for backends with no device image.

Reads through the ``MountedFileSystem`` interface only (``getattr``,
``getdents``, and ``lookup`` for ``.``/``..`` where the backend resolves
them), so it runs against every backend -- VeriFS included.  The
invariants are :class:`~repro.analysis.fsck.image.TreeChecker`'s; its
own check is size-vs-mapped-blocks, a warning only, since block
accounting is FS-specific.
"""

from __future__ import annotations

from typing import List

from repro.analysis.findings import Finding
from repro.analysis.fsck.image import TreeChecker, TreeInode
from repro.errors import FsError
from repro.kernel.stat import DT_DIR


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


def check_mounted(fs) -> List[Finding]:
    """Audit a live mounted file system; returns structured findings."""
    return MountedChecker(fs).check()
