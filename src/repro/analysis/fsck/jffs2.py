"""Offline image checker for SimJFFS2 (raw MTD / flash images).

The log is read by the same reader as the mount's
(:func:`repro.fs.jffs2.read_log_block`); where the mount silently ends a
block at the first bad node (the right *recovery* policy for torn
tails) and drops a node that does not decode, the checker *reports*
them: ``node-crc`` (bit rot, or a write torn mid-node),
``node-malformed`` (an impossible total length), ``node-length-mismatch``
(a body shorter than its fixed header or its declared lengths),
``dirent-name-invalid`` / ``xattr-name-invalid`` (a name that overruns
the node or is not UTF-8), and ``torn-log-tail`` (warn: non-erased
bytes after a block's last good node).  Replay (latest version wins, as
in the mount) reports ``version-duplicate`` (warn) and
``size-data-mismatch``; the replayed tree then goes through the shared
audit, :class:`~repro.analysis.fsck.image.TreeChecker`.  The log stores
no link count, so there is none to recount.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.findings import Finding
from repro.analysis.fsck.image import TreeChecker, TreeInode
from repro.fs.jffs2 import ROOT_INO, BadNode, JDirent, JInode, read_log_block


class Jffs2ImageChecker(TreeChecker):
    """fsck for a raw SimJFFS2 flash image."""

    checker = "fsck.jffs2"
    root_ino = ROOT_INO
    dots_stored = False
    inode_map = "the log"

    def __init__(self, image: bytes, erase_block_size: int = 16 * 1024):
        super().__init__()
        self.image = image
        self.erase_block_size = erase_block_size
        # the latest node of each object
        self.inodes: Dict[int, JInode] = {}
        self.dirents: Dict[Tuple[int, str], JDirent] = {}

    def check(self) -> List[Finding]:
        if not self._scan():
            return self.findings
        self.dirs: Dict[int, List[Tuple[int, int, str]]] = {}
        for (pino, name), dirent in sorted(self.dirents.items()):
            if dirent.child:  # not a whiteout
                self.dirs.setdefault(pino, []).append((dirent.child, dirent.dtype, name))
        self._walk_tree()
        for ino, inode in sorted(self.inodes.items()):
            if inode.mode and not inode.is_dir and len(inode.data) > inode.size:
                self._finding("size-data-mismatch",
                              f"ino {ino} declares size {inode.size} but "
                              f"carries {len(inode.data)} content bytes",
                              location=f"ino {ino}", size=inode.size,
                              data_length=len(inode.data))
        return self.findings

    # ------------------------------------------------------------- log scan --
    def _scan(self) -> bool:
        image, ebs = self.image, self.erase_block_size
        if not image or len(image) % ebs:
            self._finding("image-size",
                          f"image of {len(image)} bytes is not a positive "
                          f"multiple of the erase block size {ebs}")
            return False
        read = lambda address, length: image[address : address + length]
        for block in range(len(image) // ebs):
            nodes, end, fault = read_log_block(read, block, ebs)
            for offset, _totlen, node in nodes:
                self._ingest(node, f"block {block} offset {offset}")
            where = f"block {block} offset {end}"
            if fault and fault[0] == "length":
                self._finding("node-malformed",
                              f"node at {where} declares impossible length "
                              f"{fault[1]}", location=where, totlen=fault[1])
            elif fault:
                self._finding("node-crc",
                              f"node at {where} fails its CRC check (stored "
                              f"{fault[1]:#010x}, computed {fault[2]:#010x})",
                              location=where, stored=fault[1], computed=fault[2])
            # Everything after the last good node must read as erased flash.
            if any(byte != 0xFF for byte in image[block * ebs + end : (block + 1) * ebs]):
                self._finding("torn-log-tail",
                              f"block {block} has non-erased bytes after the "
                              f"last valid node (offset {end})",
                              severity="warn", location=f"block {block}",
                              offset=end)
        return True

    def _ingest(self, node, where: str) -> None:
        if isinstance(node, BadNode):
            self._finding(node.invariant, f"node at {where}: {node.message}",
                          location=where, **node.detail)
            return
        if isinstance(node, JInode):
            table, key, detail = self.inodes, node.ino, {"ino": node.ino}
        elif isinstance(node, JDirent):
            table, key = self.dirents, (node.pino, node.name)
            detail = {"pino": node.pino, "name": node.name}
        else:
            return  # unknown node types are obsolete by definition, like the driver
        current = table.get(key)
        if current is not None and current.version == node.version:
            self._finding("version-duplicate",
                          f"two live nodes for {detail} carry version "
                          f"{node.version}", severity="warn", location=where,
                          version=node.version, **detail)
        if current is None or node.version > current.version:  # latest wins, like the mount
            table[key] = node

    # ------------------------------------------------- reads for the audit --
    def _load_inode(self, ino: int):
        inode = self.inodes.get(ino)  # mode 0: a deletion node
        return None if inode is None else TreeInode(ino, inode.mode, None)

    def _read_dir(self, ino: int, inode):
        return self.dirs.get(ino, [])

    def _inode_slots(self):
        return ((ino, inode.mode != 0) for ino, inode in sorted(self.inodes.items()))
