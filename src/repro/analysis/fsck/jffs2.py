"""Offline image checker for SimJFFS2 (raw MTD / flash images).

The log is scanned exactly like ``MountedJffs2._scan_log`` -- but where
the mounted driver silently stops a block at the first bad node (that is
the correct *recovery* policy for torn tails), the checker *reports*
what it skipped:

* ``node-crc`` -- a node header whose CRC does not match its body:
  bit rot, or a write torn mid-node;
* ``node-malformed`` -- a valid magic with an impossible total length;
* ``node-length-mismatch`` -- an inode node whose declared data/xattr
  lengths overrun the node body;
* ``dirent-name-invalid`` -- a dirent whose name overruns the node or
  is not valid UTF-8;
* ``torn-log-tail`` (warn) -- unparseable non-erased bytes after the
  last good node of a block;
* replay-closure checks on the rebuilt index: ``missing-root``,
  ``dangling-dirent`` (a live dirent whose target inode has no live
  node), ``inode-orphan`` (a live inode no live dirent references),
  ``size-data-mismatch`` (content longer than the declared size), and
  ``version-duplicate`` (two live nodes carrying the same version for
  the same object).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.analysis.findings import Finding
from repro.analysis.fsck.image import ImageChecker
from repro.fs.base import unpack_xattrs
from repro.fs.jffs2 import (
    DIRENT_FIXED,
    DIRENT_FMT,
    HEADER_FMT,
    HEADER_SIZE,
    INODE_FIXED,
    INODE_FMT,
    NODE_MAGIC,
    NODETYPE_DIRENT,
    NODETYPE_INODE,
    ROOT_INO,
    node_crc,
)
from repro.kernel.stat import DT_DIR, S_IFDIR, S_IFMT


class Jffs2ImageChecker(ImageChecker):
    """fsck for a raw SimJFFS2 flash image."""

    checker = "fsck.jffs2"

    def __init__(self, image: bytes, erase_block_size: int = 16 * 1024):
        super().__init__(image)
        self.erase_block_size = erase_block_size
        # replay state (latest version wins, as in the mount scan)
        self.inodes: Dict[int, Tuple[int, int, int, bytes]] = {}  # ino -> (version, mode, size, data)
        self.dirents: Dict[Tuple[int, str], Tuple[int, int, int]] = {}  # (pino, name) -> (version, child, dtype)

    # ------------------------------------------------------------- log scan --
    def _scan(self) -> None:
        ebs = self.erase_block_size
        block_count = len(self.image) // ebs
        if block_count == 0 or len(self.image) % ebs:
            self._finding("image-size",
                          f"image of {len(self.image)} bytes is not a positive "
                          f"multiple of the erase block size {ebs}")
            return
        for block in range(block_count):
            base = block * ebs
            offset = 0
            while offset + HEADER_SIZE <= ebs:
                header = self.image[base + offset : base + offset + HEADER_SIZE]
                magic, nodetype, totlen, crc = struct.unpack(HEADER_FMT, header)
                where = f"block {block} offset {offset}"
                if magic != NODE_MAGIC:
                    break  # erased space or a torn tail; audited below
                if totlen < HEADER_SIZE or offset + totlen > ebs:
                    self._finding("node-malformed",
                                  f"node at {where} declares impossible length "
                                  f"{totlen}", location=where, totlen=totlen)
                    break
                body = self.image[base + offset + HEADER_SIZE : base + offset + totlen]
                if node_crc(body) != crc:
                    self._finding("node-crc",
                                  f"node at {where} fails its CRC check "
                                  f"(stored {crc:#010x}, computed "
                                  f"{node_crc(body):#010x})", location=where,
                                  stored=crc, computed=node_crc(body))
                    break
                self._ingest(nodetype, body, where)
                offset += totlen
            # Everything after the last good node must read as erased flash.
            tail = self.image[base + offset : base + ebs]
            if tail and any(byte != 0xFF for byte in tail):
                self._finding("torn-log-tail",
                              f"block {block} has non-erased bytes after the "
                              f"last valid node (offset {offset})",
                              severity="warn", location=f"block {block}",
                              offset=offset)

    def _ingest(self, nodetype: int, body: bytes, where: str) -> None:
        if nodetype == NODETYPE_INODE:
            if len(body) < INODE_FIXED:
                self._finding("node-length-mismatch",
                              f"inode node at {where} is shorter than its "
                              f"fixed header", location=where)
                return
            (ino, version, mode, _uid, _gid, size, _atime, _mtime, _ctime,
             dlen, xlen) = struct.unpack(INODE_FMT, body[:INODE_FIXED])
            if INODE_FIXED + dlen + xlen > len(body):
                self._finding("node-length-mismatch",
                              f"inode node for ino {ino} at {where} declares "
                              f"{dlen}+{xlen} payload bytes but carries only "
                              f"{len(body) - INODE_FIXED}", location=where,
                              ino=ino, dlen=dlen, xlen=xlen)
                return
            data = body[INODE_FIXED : INODE_FIXED + dlen]
            unpack_xattrs(body[INODE_FIXED + dlen : INODE_FIXED + dlen + xlen])
            current = self.inodes.get(ino)
            if current is not None and current[0] == version:
                self._finding("version-duplicate",
                              f"two live inode nodes for ino {ino} carry "
                              f"version {version}", severity="warn",
                              location=where, ino=ino, version=version)
            if current is None or version > current[0]:  # latest wins, like the mount scan
                self.inodes[ino] = (version, mode, size, data)
        elif nodetype == NODETYPE_DIRENT:
            if len(body) < DIRENT_FIXED:
                self._finding("node-length-mismatch",
                              f"dirent node at {where} is shorter than its "
                              f"fixed header", location=where)
                return
            pino, version, child, dtype, nlen = struct.unpack(
                DIRENT_FMT, body[:DIRENT_FIXED]
            )
            raw_name = body[DIRENT_FIXED : DIRENT_FIXED + nlen]
            if len(raw_name) < nlen:
                self._finding("dirent-name-invalid",
                              f"dirent node at {where} declares a {nlen}-byte "
                              f"name but carries {len(raw_name)}",
                              location=where, pino=pino)
                return
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                self._finding("dirent-name-invalid",
                              f"dirent node at {where} carries a name that is "
                              f"not valid UTF-8", location=where, pino=pino)
                return
            key = (pino, name)
            current = self.dirents.get(key)
            if current is not None and current[0] == version:
                self._finding("version-duplicate",
                              f"two live dirent nodes for {name!r} in ino "
                              f"{pino} carry version {version}",
                              severity="warn", location=where,
                              pino=pino, name=name, version=version)
            if current is None or version > current[0]:
                self.dirents[key] = (version, child, dtype)
        # unknown node types are obsolete by definition, like the driver

    # ----------------------------------------------------- replay closure --
    def _check_closure(self) -> None:
        live = {ino: entry for ino, entry in self.inodes.items() if entry[1] != 0}
        if ROOT_INO not in live or (live[ROOT_INO][1] & S_IFMT) != S_IFDIR:
            self._finding("missing-root",
                          f"no live directory inode node for the root "
                          f"(ino {ROOT_INO})", location=f"ino {ROOT_INO}")
        referenced = set()
        for (pino, name), (version, child, dtype) in sorted(self.dirents.items()):
            if child == 0:
                continue  # whiteout
            where = f"dirent {name!r} in ino {pino}"
            if pino not in live:
                self._finding("dangling-dirent",
                              f"{where} lives in a directory with no live "
                              f"inode node", location=where,
                              pino=pino, name=name)
            if child not in live:
                self._finding("dangling-dirent",
                              f"{where} points at ino {child}, which has no "
                              f"live inode node", location=where,
                              pino=pino, name=name, target=child)
                continue
            referenced.add(child)
            child_is_dir = (live[child][1] & S_IFMT) == S_IFDIR
            if child_is_dir != (dtype == DT_DIR):
                self._finding("dtype-mismatch",
                              f"{where} has dtype {dtype} but ino {child} has "
                              f"mode {live[child][1]:#o}", severity="warn",
                              location=where, dtype=dtype, mode=live[child][1])
        for ino in sorted(live):
            version, mode, size, data = live[ino]
            if ino != ROOT_INO and ino not in referenced:
                self._finding("inode-orphan",
                              f"ino {ino} has a live inode node but no live "
                              f"dirent references it", location=f"ino {ino}",
                              ino=ino)
            if (mode & S_IFMT) != S_IFDIR and len(data) > size:
                self._finding("size-data-mismatch",
                              f"ino {ino} declares size {size} but carries "
                              f"{len(data)} content bytes",
                              location=f"ino {ino}", size=size,
                              data_length=len(data))

    # --------------------------------------------------------------- driver --
    def check(self) -> List[Finding]:
        self._scan()
        if not any(f.invariant == "image-size" for f in self.findings):
            self._check_closure()
        return self.findings
