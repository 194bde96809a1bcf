"""SimJFFS2: a log-structured flash file system (the JFFS2 analogue).

Runs directly on an :class:`~repro.storage.mtd.MTDDevice` -- it cannot
mount a plain block device, which is why MCFS sets JFFS2 up differently
(mtdram + mtdblock, section 4).

On-flash format: a log of nodes appended sequentially through the erase
blocks.  Two node types, each carrying a monotonically increasing version:

* **inode nodes** -- a full snapshot of one inode's metadata *and* file
  content (real JFFS2 writes deltas; at MCFS's bounded file sizes, full
  snapshots model the same versioned-log behaviour);
* **dirent nodes** -- ``(parent ino, name) -> child ino``; a dirent with
  child ino 0 is a deletion marker (whiteout).

Mounting scans the entire log to rebuild the in-memory index (the reason
real JFFS2 mounts are slow -- faithfully charged to the simulated clock).
The log is read by the same reader as fsck's (``read_log_block``): a
block ends at the first node that is not whole, and a whole node that
does not decode is obsolete, like one of unknown type.  The *entire*
directory tree and file index live in memory; only the log is
persistent, so restoring the flash image under a live mount leaves the
in-memory index describing a different history -- corruption follows as
soon as the fs appends at its stale write cursor.

Garbage collection: when an append does not fit, live nodes are copied
out of the dirtiest erase block, which is then erased.

Observable quirks (feeding MCFS's false-positive workarounds):
directory sizes are always reported as **0**, and getdents returns
entries in log-discovery order.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, NamedTuple, Tuple

from repro.errors import (
    EEXIST,
    EFBIG,
    EINVAL,
    EIO,
    EISDIR,
    ENODATA,
    ENOENT,
    ENOSPC,
    ENOTDIR,
    ENOTEMPTY,
    FsError,
)
from repro.fs.base import check_name, pack_xattrs, unpack_xattrs
from repro.kernel.stat import (
    DT_DIR,
    DT_LNK,
    DT_REG,
    XATTR_CREATE,
    XATTR_REPLACE,
    Dirent,
    S_IFDIR,
    S_IFLNK,
    S_IFMT,
    S_IFREG,
    StatResult,
    StatVFS,
    mode_to_dtype,
)
from repro.kernel.vfs import FileSystemType, MountedFileSystem
from repro.storage.mtd import MTDDevice

NODE_MAGIC = 0x1985
NODETYPE_INODE = 0xE001
NODETYPE_DIRENT = 0xE002
HEADER_FMT = "<HHII"  # magic, nodetype, total length, body CRC32
HEADER_SIZE = struct.calcsize(HEADER_FMT)


def node_crc(body: bytes) -> int:
    """CRC32 over a node body, as stored in the node header (real JFFS2
    checksums its headers and payloads the same way)."""
    return zlib.crc32(body) & 0xFFFFFFFF
INODE_FMT = "<IIIIIQ3dII"  # ino, version, mode, uid, gid, size, a/m/ctime, data length, xattr length
INODE_FIXED = struct.calcsize(INODE_FMT)
DIRENT_FMT = "<IIIBB"  # parent ino, version, child ino (0 = whiteout), dtype, name length
DIRENT_FIXED = struct.calcsize(DIRENT_FMT)

ROOT_INO = 1
MAX_FILE_SIZE = 1 << 20  # bounded: MCFS parameter pools stay tiny anyway


class JInode:
    """In-memory state of one inode (latest version wins)."""

    __slots__ = ("ino", "version", "mode", "uid", "gid", "size",
                 "atime", "mtime", "ctime", "data", "xattrs")

    def __init__(self, ino: int):
        self.ino = ino
        self.version = 0
        self.mode = 0
        self.uid = 0
        self.gid = 0
        self.size = 0
        self.atime = 0.0
        self.mtime = 0.0
        self.ctime = 0.0
        self.data = b""
        self.xattrs: Dict[str, bytes] = {}

    @property
    def is_dir(self) -> bool:
        return (self.mode & S_IFMT) == S_IFDIR

    @property
    def is_symlink(self) -> bool:
        return (self.mode & S_IFMT) == S_IFLNK


class JDirent(NamedTuple):
    """One dirent node: ``(pino, name) -> child``, 0 being a whiteout."""

    pino: int
    version: int
    child: int
    dtype: int
    name: str


class BadNode(NamedTuple):
    """A whole, CRC-valid node that does not decode, as fsck reports it."""

    invariant: str
    message: str
    detail: dict


def read_log_block(read, block: int, erase_block_size: int):
    """The one log reader, of the mount and of fsck: one erase block's
    nodes through ``read(address, length)``, up to the first that is not
    whole.  Returns ``(nodes, end, fault)``: ``(offset, totlen, node)``
    per node (a :class:`JInode`, :class:`JDirent`, :class:`BadNode`, or
    None for an unknown type), the offset after the last, and why the
    block stops there: None (erased flash, a torn header, no room for a
    header), ``("length", totlen)`` or ``("crc", stored, computed)``."""
    base = block * erase_block_size
    nodes = []
    offset = 0
    while offset + HEADER_SIZE <= erase_block_size:
        magic, nodetype, totlen, crc = struct.unpack(
            HEADER_FMT, read(base + offset, HEADER_SIZE))
        if magic != NODE_MAGIC:
            return nodes, offset, None
        if totlen < HEADER_SIZE or offset + totlen > erase_block_size:
            return nodes, offset, ("length", totlen)
        body = read(base + offset + HEADER_SIZE, totlen - HEADER_SIZE)
        if node_crc(body) != crc:
            return nodes, offset, ("crc", crc, node_crc(body))
        nodes.append((offset, totlen, _decode(nodetype, body)))
        offset += totlen
    return nodes, offset, None


def _decode(nodetype: int, body: bytes):
    if nodetype == NODETYPE_INODE:
        if len(body) < INODE_FIXED:
            return BadNode("node-length-mismatch", "inode node shorter than its header", {})
        fields = struct.unpack(INODE_FMT, body[:INODE_FIXED])
        ino, dlen, xlen = fields[0], fields[9], fields[10]
        if INODE_FIXED + dlen + xlen > len(body):
            return BadNode("node-length-mismatch",
                           f"inode node for ino {ino} declares {dlen}+{xlen} payload "
                           f"bytes but carries {len(body) - INODE_FIXED}",
                           {"ino": ino, "dlen": dlen, "xlen": xlen})
        inode = JInode(ino)
        (_, inode.version, inode.mode, inode.uid, inode.gid, inode.size,
         inode.atime, inode.mtime, inode.ctime, _, _) = fields
        inode.data = bytes(body[INODE_FIXED : INODE_FIXED + dlen])
        try:
            inode.xattrs = unpack_xattrs(body[INODE_FIXED + dlen : INODE_FIXED + dlen + xlen])
        except UnicodeDecodeError:
            return BadNode("xattr-name-invalid", f"inode node for ino {ino} carries "
                           f"an xattr name that is not UTF-8", {"ino": ino})
        return inode
    if nodetype == NODETYPE_DIRENT:
        if len(body) < DIRENT_FIXED:
            return BadNode("node-length-mismatch", "dirent node shorter than its header", {})
        pino, version, child, dtype, nlen = struct.unpack(DIRENT_FMT, body[:DIRENT_FIXED])
        raw_name = body[DIRENT_FIXED : DIRENT_FIXED + nlen]
        if len(raw_name) < nlen:
            return BadNode("dirent-name-invalid", f"dirent node declares a {nlen}-byte "
                           f"name but carries {len(raw_name)}", {"pino": pino})
        try:
            return JDirent(pino, version, child, dtype, raw_name.decode("utf-8"))
        except UnicodeDecodeError:
            return BadNode("dirent-name-invalid", "dirent node carries a name that "
                           "is not UTF-8", {"pino": pino})
    return None


class Jffs2FileSystemType(FileSystemType):
    """mkfs + mount entry points for SimJFFS2 (MTD devices only)."""

    name = "jffs2"
    min_device_size = 64 * 1024
    special_paths = ()

    @staticmethod
    def _is_mtd(device) -> bool:
        # duck-typed so wrappers (a PowerCutDevice around an MTD) qualify
        return hasattr(device, "erase_block_size") and hasattr(device, "erase_block")

    def mkfs(self, device) -> None:
        if not self._is_mtd(device):
            raise FsError(EINVAL, "jffs2 requires an MTD device, not a block device")
        for block in range(device.erase_block_count):
            device.erase_block(block)
        # Write the root inode node as the first log entry.
        fs = MountedJffs2.__new__(MountedJffs2)
        fs._init_empty(device)
        root = JInode(ROOT_INO)
        root.mode = S_IFDIR | 0o755
        now = device.clock.now
        root.atime = root.mtime = root.ctime = now
        root.version = 1
        fs._inodes[ROOT_INO] = root
        fs._dirs[ROOT_INO] = {}
        fs._append_inode_node(root)

    def mount(self, device, kernel=None) -> "MountedJffs2":
        if not self._is_mtd(device):
            raise FsError(EINVAL, "jffs2 requires an MTD device, not a block device")
        return MountedJffs2(device)


class MountedJffs2(MountedFileSystem):
    """A live SimJFFS2 instance: the full index lives in memory."""

    ROOT_INO = ROOT_INO

    def __init__(self, device):
        self._init_empty(device)
        self._scan_log()

    def _init_empty(self, device) -> None:
        self.device = device
        self.mtd = device
        self.clock = device.clock
        self._inodes: Dict[int, JInode] = {}
        self._dirs: Dict[int, Dict[str, Tuple[int, int]]] = {}  # pino -> {name: (ino, dtype)}
        self._dirent_versions: Dict[Tuple[int, str], int] = {}
        self._version = 1
        self._next_ino = ROOT_INO + 1
        self._write_block = 0  # erase block currently being appended to
        self._write_offset = 0  # offset within that block
        self._dead_bytes: List[int] = [0] * device.erase_block_count
        self._live_bytes: List[int] = [0] * device.erase_block_count
        self._node_positions: Dict[Tuple[str, object], Tuple[int, int]] = {}
        self._in_gc = False
        self._alive = True

    # -------------------------------------------------------------- log scan --
    def _scan_log(self) -> None:
        """Rebuild the in-memory index by replaying every erase block.

        Every append but a GC copy takes the next version, and GC copies
        are written before the append that needed the room, so the newest
        node is the last one written: appending resumes at the end of its
        block, where the mount that wrote it left its write cursor."""
        ebs = self.mtd.erase_block_size
        newest = 0
        for block in range(self.mtd.erase_block_count):
            nodes, end, _fault = read_log_block(self.mtd.read, block, ebs)
            for _offset, totlen, node in nodes:
                self._ingest_node(node, block, totlen)
                if isinstance(node, (JInode, JDirent)) and node.version > newest:
                    newest = node.version
                    self._write_block, self._write_offset = block, end
        # Drop inodes whose latest node says "deleted" (mode 0).
        for ino in [i for i, inode in self._inodes.items() if inode.mode == 0]:
            del self._inodes[ino]
        if self._inodes:
            self._next_ino = max(self._inodes) + 1
        self._version = newest + 1

    def _ingest_node(self, node, block: int, totlen: int) -> None:
        """Replay one node: the latest version of each inode and dirent
        wins; a node of unknown type, or one that does not decode, is
        obsolete."""
        if isinstance(node, JInode):
            current = self._inodes.get(node.ino)
            if node.version > (current.version if current else 0):
                self._place(("inode", node.ino), block, totlen)
                self._inodes[node.ino] = node
                if node.is_dir:
                    self._dirs.setdefault(node.ino, {})
                return
        elif isinstance(node, JDirent):
            key = (node.pino, node.name)
            if node.version > self._dirent_versions.get(key, 0):
                self._place(("dirent", key), block, totlen)
                self._dirent_versions[key] = node.version
                entries = self._dirs.setdefault(node.pino, {})
                if node.child == 0:
                    entries.pop(node.name, None)
                else:
                    entries[node.name] = (node.child, node.dtype)
                return
        self._dead_bytes[block] += totlen

    def _place(self, key, block: int, totlen: int) -> None:
        """Book ``key``'s latest node at ``block``; its previous node dies."""
        previous = self._node_positions.pop(key, None)
        if previous is not None:
            old_block, old_len = previous
            self._dead_bytes[old_block] += old_len
            self._live_bytes[old_block] -= old_len
        self._node_positions[key] = (block, totlen)
        self._live_bytes[block] += totlen

    # ------------------------------------------------------------- appending --
    def _append_raw(self, nodetype: int, body: bytes, position_key) -> None:
        totlen = HEADER_SIZE + len(body)
        ebs = self.mtd.erase_block_size
        if totlen > ebs:
            raise FsError(EFBIG, f"node of {totlen} bytes exceeds erase block")
        if self._write_offset + totlen > ebs:
            self._advance_write_block(totlen)
        address = self._write_block * ebs + self._write_offset
        raw = struct.pack(HEADER_FMT, NODE_MAGIC, nodetype, totlen, node_crc(body)) + body
        self.mtd.write(address, raw)
        self._place(position_key, self._write_block, totlen)
        self._write_offset += totlen

    def _advance_write_block(self, needed: int) -> None:
        """Move the write cursor to an erased block, GCing if required."""
        for _ in range(2):
            for block in range(self.mtd.erase_block_count):
                if block == self._write_block:
                    continue
                if (
                    self._live_bytes[block] == 0
                    and self._dead_bytes[block] == 0
                    and self.mtd.is_block_erased(block)
                ):
                    self._write_block = block
                    self._write_offset = 0
                    return
            if self._in_gc:
                # GC itself ran out of room for evacuated nodes; real
                # JFFS2 avoids this with reserved GC blocks, we report
                # the fs full.
                raise FsError(ENOSPC, "flash full while garbage-collecting")
            self._garbage_collect()
        raise FsError(ENOSPC, "no erased blocks available after GC")

    def _garbage_collect(self) -> None:
        """Evacuate the dirtiest erase block and erase it.

        Fully-dead blocks are preferred: erasing them requires no node
        evacuation at all, so GC can always make progress on churn-heavy
        logs without consuming write space.
        """
        candidates = [
            block
            for block in range(self.mtd.erase_block_count)
            if block != self._write_block and self._dead_bytes[block] > 0
        ]
        if not candidates:
            raise FsError(ENOSPC, "file system full (nothing to garbage-collect)")
        dead_only = [block for block in candidates if self._live_bytes[block] == 0]
        pool = dead_only if dead_only else candidates
        victim = max(pool, key=lambda block: self._dead_bytes[block])
        # Re-append every live node currently resident in the victim block.
        live_keys = [
            key for key, (block, _len) in self._node_positions.items() if block == victim
        ]
        self._in_gc = True
        try:
            for key in live_keys:
                kind, ident = key
                if kind == "inode":
                    inode = self._inodes.get(ident)
                    if inode is not None:
                        self._append_inode_node(inode, bump_version=False)
                else:
                    pino, name = ident
                    entries = self._dirs.get(pino, {})
                    if name in entries:
                        child, dtype = entries[name]
                        self._append_dirent_node(pino, name, child, dtype, bump_version=False)
        finally:
            self._in_gc = False
        self._dead_bytes[victim] = 0
        self._live_bytes[victim] = 0
        self.mtd.erase_block(victim)

    def _append_inode_node(self, inode: JInode, bump_version: bool = True) -> None:
        if bump_version:
            inode.version = self._version
            self._version += 1
        xattr_blob = pack_xattrs(inode.xattrs) if inode.xattrs else b""
        body = struct.pack(
            INODE_FMT, inode.ino, inode.version, inode.mode, inode.uid,
            inode.gid, inode.size, inode.atime, inode.mtime, inode.ctime,
            len(inode.data), len(xattr_blob),
        ) + inode.data + xattr_blob
        self._append_raw(NODETYPE_INODE, body, ("inode", inode.ino))

    def _append_dirent_node(
        self, pino: int, name: str, child: int, dtype: int, bump_version: bool = True
    ) -> None:
        raw_name = name.encode("utf-8")
        if bump_version:
            self._dirent_versions[(pino, name)] = self._version
            version = self._version
            self._version += 1
        else:
            version = self._dirent_versions.get((pino, name), 1)
        body = struct.pack(DIRENT_FMT, pino, version, child, dtype, len(raw_name)) + raw_name
        self._append_raw(NODETYPE_DIRENT, body, ("dirent", (pino, name)))

    # ------------------------------------------------------------- lifecycle --
    def sync(self) -> None:
        self._check_alive()
        # The log is write-through: nothing to flush.

    def unmount(self) -> None:
        self._check_alive()
        self._inodes.clear()
        self._dirs.clear()
        self._alive = False

    def _check_alive(self) -> None:
        if not self._alive:
            raise FsError(EIO, "file system is unmounted")

    # --------------------------------------------------------------- helpers --
    def _require_inode(self, ino: int) -> JInode:
        self._check_alive()
        inode = self._inodes.get(ino)
        if inode is None:
            raise FsError(ENOENT, f"inode {ino}")
        return inode

    def _require_dir(self, ino: int) -> JInode:
        inode = self._require_inode(ino)
        if not inode.is_dir:
            raise FsError(ENOTDIR, f"inode {ino}")
        return inode

    def _nlink(self, ino: int) -> int:
        inode = self._inodes[ino]
        if inode.is_dir:
            subdirs = sum(
                1 for child, dtype in self._dirs.get(ino, {}).values() if dtype == DT_DIR
            )
            return 2 + subdirs
        return sum(
            1
            for entries in self._dirs.values()
            for child, _dtype in entries.values()
            if child == ino
        )

    # ------------------------------------------------------------ VFS interface --
    def lookup(self, dir_ino: int, name: str) -> int:
        self._require_dir(dir_ino)
        entry = self._dirs.get(dir_ino, {}).get(name)
        if entry is None:
            raise FsError(ENOENT, name)
        return entry[0]

    def getattr(self, ino: int) -> StatResult:
        inode = self._require_inode(ino)
        return StatResult(
            st_ino=ino, st_mode=inode.mode, st_nlink=self._nlink(ino),
            st_uid=inode.uid, st_gid=inode.gid,
            # JFFS2 reports directory sizes as 0.
            st_size=0 if inode.is_dir else inode.size,
            st_blocks=(len(inode.data) + 511) // 512,
            st_atime=inode.atime, st_mtime=inode.mtime, st_ctime=inode.ctime,
        )

    def getdents(self, dir_ino: int) -> List[Dirent]:
        self._require_dir(dir_ino)
        return [
            Dirent(name=name, ino=child, dtype=dtype)
            for name, (child, dtype) in self._dirs.get(dir_ino, {}).items()
        ]

    def _create_common(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> JInode:
        check_name(name)
        self._require_dir(dir_ino)
        if name in self._dirs.get(dir_ino, {}):
            raise FsError(EEXIST, name)
        inode = JInode(self._next_ino)
        self._next_ino += 1
        inode.mode = mode
        inode.uid = uid
        inode.gid = gid
        inode.atime = inode.mtime = inode.ctime = self.clock.now
        return inode

    def create(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> int:
        inode = self._create_common(dir_ino, name, S_IFREG | (mode & 0o7777), uid, gid)
        self._inodes[inode.ino] = inode
        self._append_inode_node(inode)
        self._dirs[dir_ino][name] = (inode.ino, DT_REG)
        self._append_dirent_node(dir_ino, name, inode.ino, DT_REG)
        self._touch_dir(dir_ino)
        return inode.ino

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int, gid: int) -> int:
        inode = self._create_common(dir_ino, name, S_IFDIR | (mode & 0o7777), uid, gid)
        self._inodes[inode.ino] = inode
        self._dirs[inode.ino] = {}
        self._append_inode_node(inode)
        self._dirs[dir_ino][name] = (inode.ino, DT_DIR)
        self._append_dirent_node(dir_ino, name, inode.ino, DT_DIR)
        self._touch_dir(dir_ino)
        return inode.ino

    def symlink(self, dir_ino: int, name: str, target: str, uid: int, gid: int) -> int:
        inode = self._create_common(dir_ino, name, S_IFLNK | 0o777, uid, gid)
        inode.data = target.encode("utf-8")
        inode.size = len(inode.data)
        self._inodes[inode.ino] = inode
        self._append_inode_node(inode)
        self._dirs[dir_ino][name] = (inode.ino, DT_LNK)
        self._append_dirent_node(dir_ino, name, inode.ino, DT_LNK)
        self._touch_dir(dir_ino)
        return inode.ino

    def readlink(self, ino: int) -> str:
        inode = self._require_inode(ino)
        if not inode.is_symlink:
            raise FsError(EINVAL, f"inode {ino} is not a symlink")
        return inode.data.decode("utf-8")

    def link(self, ino: int, dir_ino: int, name: str) -> None:
        check_name(name)
        inode = self._require_inode(ino)
        if inode.is_dir:
            raise FsError(EISDIR, "cannot hard-link directories")
        self._require_dir(dir_ino)
        if name in self._dirs.get(dir_ino, {}):
            raise FsError(EEXIST, name)
        self._dirs[dir_ino][name] = (ino, mode_to_dtype(inode.mode))
        self._append_dirent_node(dir_ino, name, ino, mode_to_dtype(inode.mode))
        inode.ctime = self.clock.now
        self._append_inode_node(inode)
        self._touch_dir(dir_ino)

    def _touch_dir(self, dir_ino: int) -> None:
        directory = self._inodes[dir_ino]
        directory.mtime = directory.ctime = self.clock.now
        self._append_inode_node(directory)

    def unlink(self, dir_ino: int, name: str) -> None:
        self._require_dir(dir_ino)
        entry = self._dirs.get(dir_ino, {}).get(name)
        if entry is None:
            raise FsError(ENOENT, name)
        ino, _dtype = entry
        inode = self._require_inode(ino)
        if inode.is_dir:
            raise FsError(EISDIR, name)
        del self._dirs[dir_ino][name]
        self._append_dirent_node(dir_ino, name, 0, 0)  # whiteout
        if self._nlink(ino) == 0:
            # Write a deletion inode node (mode 0) and drop the index entry.
            inode.mode = 0
            inode.data = b""
            inode.xattrs = {}
            inode.size = 0
            self._append_inode_node(inode)
            del self._inodes[ino]
        else:
            inode.ctime = self.clock.now
            self._append_inode_node(inode)
        self._touch_dir(dir_ino)

    def rmdir(self, dir_ino: int, name: str) -> None:
        self._require_dir(dir_ino)
        entry = self._dirs.get(dir_ino, {}).get(name)
        if entry is None:
            raise FsError(ENOENT, name)
        ino, _dtype = entry
        inode = self._require_inode(ino)
        if not inode.is_dir:
            raise FsError(ENOTDIR, name)
        if self._dirs.get(ino):
            raise FsError(ENOTEMPTY, name)
        del self._dirs[dir_ino][name]
        self._append_dirent_node(dir_ino, name, 0, 0)
        inode.mode = 0
        self._append_inode_node(inode)
        del self._inodes[ino]
        self._dirs.pop(ino, None)
        self._touch_dir(dir_ino)

    def _is_ancestor(self, maybe_ancestor: int, ino: int) -> bool:
        if maybe_ancestor == ino:
            return True
        # walk down from maybe_ancestor looking for ino
        stack = [maybe_ancestor]
        seen = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for child, dtype in self._dirs.get(current, {}).values():
                if child == ino:
                    return True
                if dtype == DT_DIR:
                    stack.append(child)
        return False

    def rename(self, old_dir: int, old_name: str, new_dir: int, new_name: str) -> None:
        check_name(new_name)
        self._require_dir(old_dir)
        self._require_dir(new_dir)
        entry = self._dirs.get(old_dir, {}).get(old_name)
        if entry is None:
            raise FsError(ENOENT, old_name)
        ino, dtype = entry
        moving = self._require_inode(ino)
        if moving.is_dir and old_dir != new_dir and self._is_ancestor(ino, new_dir):
            raise FsError(EINVAL, "cannot move a directory into its own subtree")
        existing = self._dirs.get(new_dir, {}).get(new_name)
        if existing is not None:
            existing_ino, _ = existing
            if existing_ino == ino:
                return
            victim = self._require_inode(existing_ino)
            if victim.is_dir:
                if not moving.is_dir:
                    raise FsError(EISDIR, new_name)
                if self._dirs.get(existing_ino):
                    raise FsError(ENOTEMPTY, new_name)
                self.rmdir(new_dir, new_name)
            else:
                if moving.is_dir:
                    raise FsError(ENOTDIR, new_name)
                self.unlink(new_dir, new_name)
        del self._dirs[old_dir][old_name]
        self._append_dirent_node(old_dir, old_name, 0, 0)
        self._dirs[new_dir][new_name] = (ino, dtype)
        self._append_dirent_node(new_dir, new_name, ino, dtype)
        moving.ctime = self.clock.now
        self._append_inode_node(moving)
        self._touch_dir(old_dir)
        if new_dir != old_dir:
            self._touch_dir(new_dir)

    def read(self, ino: int, offset: int, length: int) -> bytes:
        inode = self._require_inode(ino)
        if inode.is_dir:
            raise FsError(EISDIR, f"inode {ino}")
        inode.atime = self.clock.now  # in-memory only; jffs2 defers atime
        if offset >= inode.size:
            return b""
        end = min(offset + length, inode.size)
        data = inode.data[offset:end]
        if len(data) < end - offset:
            data += b"\x00" * (end - offset - len(data))  # holes read as zeros
        return data

    def write(self, ino: int, offset: int, data: bytes) -> int:
        inode = self._require_inode(ino)
        if inode.is_dir:
            raise FsError(EISDIR, f"inode {ino}")
        end = offset + len(data)
        if end > MAX_FILE_SIZE:
            raise FsError(EFBIG, f"write to {end} exceeds max file size")
        content = bytearray(inode.data)
        if len(content) < inode.size:
            content += b"\x00" * (inode.size - len(content))
        if end > len(content):
            content += b"\x00" * (end - len(content))
        content[offset:end] = data
        inode.data = bytes(content)
        inode.size = max(inode.size, end)
        inode.mtime = inode.ctime = self.clock.now
        self._append_inode_node(inode)
        return len(data)

    def truncate(self, ino: int, size: int) -> None:
        inode = self._require_inode(ino)
        if inode.is_dir:
            raise FsError(EISDIR, f"inode {ino}")
        if size > MAX_FILE_SIZE:
            raise FsError(EFBIG, f"truncate to {size} exceeds max file size")
        if size < inode.size:
            inode.data = inode.data[:size]
        inode.size = size
        inode.mtime = inode.ctime = self.clock.now
        self._append_inode_node(inode)

    def setattr(self, ino, mode=None, uid=None, gid=None, atime=None, mtime=None):
        inode = self._require_inode(ino)
        if mode is not None:
            inode.mode = (inode.mode & S_IFMT) | (mode & 0o7777)
        if uid is not None:
            inode.uid = uid
        if gid is not None:
            inode.gid = gid
        if atime is not None:
            inode.atime = atime
        if mtime is not None:
            inode.mtime = mtime
        inode.ctime = self.clock.now
        self._append_inode_node(inode)
        return self.getattr(ino)

    # ---------------------------------------------------------------- xattrs --
    # xattrs travel inside the versioned inode nodes, so every update is
    # one more log append and the mount scan restores them for free.

    def setxattr(self, ino: int, key: str, value: bytes, flags: int = 0) -> None:
        inode = self._require_inode(ino)
        if flags == XATTR_CREATE and key in inode.xattrs:
            raise FsError(EEXIST, key)
        if flags == XATTR_REPLACE and key not in inode.xattrs:
            raise FsError(ENODATA, key)
        inode.xattrs[key] = bytes(value)
        inode.ctime = self.clock.now
        self._append_inode_node(inode)

    def getxattr(self, ino: int, key: str) -> bytes:
        inode = self._require_inode(ino)
        if key not in inode.xattrs:
            raise FsError(ENODATA, key)
        return inode.xattrs[key]

    def listxattr(self, ino: int) -> List[str]:
        return sorted(self._require_inode(ino).xattrs)

    def removexattr(self, ino: int, key: str) -> None:
        inode = self._require_inode(ino)
        if key not in inode.xattrs:
            raise FsError(ENODATA, key)
        del inode.xattrs[key]
        inode.ctime = self.clock.now
        self._append_inode_node(inode)

    def statfs(self) -> StatVFS:
        ebs = self.mtd.erase_block_size
        free_bytes = 0
        for block in range(self.mtd.erase_block_count):
            if block == self._write_block:
                free_bytes += ebs - self._write_offset
            else:
                free_bytes += self._dead_bytes[block] + max(
                    0, ebs - self._dead_bytes[block] - self._live_bytes[block]
                ) if not self.mtd.is_block_erased(block) else ebs
        # report in 1K pseudo-blocks like real jffs2's statfs
        block_size = 1024
        total = self.mtd.size_bytes // block_size
        return StatVFS(
            block_size=block_size,
            blocks_total=total,
            blocks_free=max(0, free_bytes // block_size - self.mtd.erase_block_size // block_size),
            files_total=0,
            files_free=0,
        )
