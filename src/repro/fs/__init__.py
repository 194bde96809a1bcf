"""Simulated file systems.

Four in-kernel-style file systems (ext2, ext4, xfs, jffs2) implemented
from scratch on the simulated device layer, each with genuinely different
on-disk layouts and observable quirks -- the quirks are what drive the
paper's false-positive workarounds (section 3.4):

================  ==============================  ===========================
file system       directory size reported          special paths / substrate
================  ==============================  ===========================
ext2              multiple of block size           ``lost+found``
ext4              multiple of block size           ``lost+found``; journal
xfs               sum of entry record sizes        16 MB minimum device
jffs2             always 0                         MTD (erase-block) device
================  ==============================  ===========================

getdents ordering also differs: ext2/ext4 return insertion order, xfs
returns name-hash order, jffs2 returns log-discovery order.

The three block file systems share one POSIX layer,
:class:`repro.fs.base.MountedBlockFileSystem`: namespace and xattr
operations, the inode cache and the data path are written once there, and
``ext2``/``ext4``/``xfs`` supply only their on-disk formats.  jffs2 is
log-structured and keeps its own.
"""

from repro.fs.base import BufferCache
from repro.fs.ext2 import Ext2FileSystemType
from repro.fs.ext4 import Ext4FileSystemType
from repro.fs.xfs import XfsFileSystemType
from repro.fs.jffs2 import Jffs2FileSystemType

__all__ = [
    "BufferCache",
    "Ext2FileSystemType",
    "Ext4FileSystemType",
    "XfsFileSystemType",
    "Jffs2FileSystemType",
]
