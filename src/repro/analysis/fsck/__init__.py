"""fsck checkers for the simulated file systems.

:func:`check_image` runs the right checker over one raw image (the
view ``device.snapshot_image()`` returns; :func:`detect_fstype` names
its format by magic); :func:`check_mounted` audits a live mount, for
backends with no device image (VeriFS).  Every checker runs the one
tree audit, :class:`~repro.analysis.fsck.image.TreeChecker`, over what
its source reads, and returns :class:`~repro.analysis.findings.Finding`
records.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.findings import Finding
from repro.analysis.fsck.ext2 import Ext2ImageChecker, Ext4ImageChecker
from repro.analysis.fsck.generic import check_mounted
from repro.analysis.fsck.image import BlockImageChecker
from repro.analysis.fsck.jffs2 import Jffs2ImageChecker
from repro.analysis.fsck.xfs import XfsImageChecker
from repro.fs.ext2 import MAGIC as EXT2_MAGIC
from repro.fs.ext4 import MAGIC as EXT4_MAGIC
from repro.fs.jffs2 import NODE_MAGIC as JFFS2_NODE_MAGIC
from repro.fs.xfs import MAGIC as XFS_MAGIC

__all__ = [
    "BlockImageChecker",
    "CHECKERS",
    "Ext2ImageChecker",
    "Ext4ImageChecker",
    "Jffs2ImageChecker",
    "XfsImageChecker",
    "check_image",
    "check_mounted",
    "detect_fstype",
]

#: per-fstype checker classes, keyed by ``FileSystemType.name``
CHECKERS = {
    "ext2": Ext2ImageChecker,
    "ext4": Ext4ImageChecker,
    "xfs": XfsImageChecker,
    "jffs2": Jffs2ImageChecker,
}

#: default geometry options the image does not record (match the
#: FileSystemType defaults); block sizes come from the superblock
_DEFAULTS: Dict[str, Dict[str, int]] = {
    "ext4": {"journal_blocks": 16},
    "jffs2": {"erase_block_size": 16 * 1024},
}


def detect_fstype(image: bytes) -> Optional[str]:
    """Identify an image by its on-disk magic; None when unrecognised."""
    if image.startswith(EXT2_MAGIC):
        return "ext2"
    if image.startswith(EXT4_MAGIC):
        return "ext4"
    if image.startswith(XFS_MAGIC):
        return "xfs"
    if len(image) >= 2 and int.from_bytes(image[:2], "little") == JFFS2_NODE_MAGIC:
        return "jffs2"
    return None


def check_image(image: bytes, fstype: Optional[str] = None,
                **options) -> List[Finding]:
    """Run the appropriate offline checker over one raw device image.

    ``fstype`` may be omitted (the magic decides) or one of ``CHECKERS``'
    keys.  ``options`` override the per-FS geometry defaults
    (``erase_block_size``, ``journal_blocks``); options another format
    takes, and ``None`` values, are ignored.
    """
    name = fstype or detect_fstype(image)
    if name is None:
        return [Finding(
            checker="fsck", invariant="unknown-format",
            message=f"image of {len(image)} bytes matches no known magic",
            location="block 0",
        )]
    try:
        checker_class = CHECKERS[name]
    except KeyError:
        raise ValueError(f"no image checker for fstype {name!r}; "
                         f"know {sorted(CHECKERS)}") from None
    kwargs = dict(_DEFAULTS.get(name, {}))
    kwargs.update((key, value) for key, value in options.items()
                  if key in kwargs and value is not None)
    return checker_class(image, **kwargs).check()

