"""Block-device abstraction.

A :class:`BlockDevice` is a flat array of fixed-size sectors.  File systems
read and write whole blocks (their own block size, a multiple of the sector
size).  Every access charges latency to the device's clock.

Storage is held as a table of *refcounted immutable chunks* rather than one
flat buffer: a write copies only the touched chunk, a snapshot grabs the
table (:meth:`BlockDevice.snapshot_chunks`), and a restore swaps tables
back.  Successive snapshots therefore share every chunk that was not
rewritten between them -- the copy-on-write hot path MCFS leans on when it
checkpoints before every operation (the paper mmaps the backing store into
Spin's address space; chunk sharing is our equivalent of its page-granular
copy-on-write).  The table itself is two-level -- a list of immutable
groups of :data:`GROUP_CHUNKS` chunks -- so a grab costs O(groups) and a
restore compares chunks only inside the groups written since the snapshot.
:meth:`snapshot_image` still materializes the full byte image for legacy
callers and the offline fsck checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import List, Optional, Set, Tuple

from repro.clock import SimClock
from repro.errors import DeviceError

#: granularity of copy-on-write sharing.  4 KiB mirrors the page-cache
#: granularity a real mmap-based checker would fault at.
DEFAULT_CHUNK_SIZE = 4096

#: chunks per group tuple of the chunk table.  A write rebuilds one group
#: (64 references); a snapshot grabs one reference per group, so a 16 MiB
#: device (4 096 chunks) costs 64 of them instead of 4 096.
GROUP_CHUNKS = 64


@dataclass
class DeviceStats:
    """I/O accounting for a device (reads/writes in requests and bytes).

    ``bytes_snapshotted`` counts bytes the snapshot path actually copied
    (the dirty chunks materialized by a chunk-table grab, or a whole
    image materialization); ``bytes_restored`` counts bytes rewritten by
    a restore.  Before these counters existed, snapshot traffic was
    invisible to every report.
    """

    read_requests: int = 0
    write_requests: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    erases: int = 0
    bytes_snapshotted: int = 0
    bytes_restored: int = 0

    def reset(self) -> None:
        self.read_requests = 0
        self.write_requests = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.erases = 0
        self.bytes_snapshotted = 0
        self.bytes_restored = 0


@dataclass(frozen=True)
class DiskSnapshot:
    """A checkpoint token: a frozen grab of the chunk table's groups.

    Chunks are immutable ``bytes`` objects shared (refcounted) with the
    live device and with every other snapshot that has not rewritten
    them, so a DFS stack of snapshots is naturally a chain of deltas.
    Whole groups are shared the same way: a group no write touched
    between two snapshots is one tuple object in both.
    """

    device_name: str
    size_bytes: int
    chunk_size: int
    groups: Tuple[Tuple[bytes, ...], ...]

    @property
    def chunks(self) -> Tuple[bytes, ...]:
        """The chunk table, flattened (a read-only view built per call)."""
        return tuple(chain.from_iterable(self.groups))

    def materialize(self) -> bytes:
        """Flatten to the raw byte image (legacy/fsck consumers)."""
        return b"".join(chain.from_iterable(self.groups))


class ChunkedStore:
    """Shared chunk-table mechanics for :class:`BlockDevice` and MTD.

    Hosts hold ``_chunk_groups`` (a list of tuples of :data:`GROUP_CHUNKS`
    immutable ``bytes`` chunks each; the last may be shorter), ``_dirty``
    (chunk indices rewritten since the last :meth:`snapshot_chunks`
    grab), and a ``stats`` object with the snapshot/restore counters.
    Group tuples are never mutated: replacing a chunk installs a new
    tuple for its group, so a snapshot can share the old one.
    """

    size_bytes: int
    chunk_size: int
    name: str
    stats: DeviceStats
    _chunk_groups: List[Tuple[bytes, ...]]
    _dirty: Set[int]

    def _init_chunks(self, size_bytes: int, chunk_size: int, fill: int = 0) -> None:
        self.chunk_size = max(1, min(chunk_size, size_bytes))
        full, tail = divmod(size_bytes, self.chunk_size)
        # one shared fill chunk: an untouched device is a single refcounted
        # chunk repeated, so empty regions never cost snapshot bytes
        shared = bytes([fill]) * self.chunk_size
        chunks = [shared] * full
        if tail:
            chunks.append(bytes([fill]) * tail)
        self._chunk_groups = [tuple(chunks[start : start + GROUP_CHUNKS])
                              for start in range(0, len(chunks), GROUP_CHUNKS)]
        self._dirty = set()

    # -- the chunk table ---------------------------------------------------
    def _chunk(self, index: int) -> bytes:
        return self._chunk_groups[index // GROUP_CHUNKS][index % GROUP_CHUNKS]

    def _set_chunk(self, index: int, chunk: bytes) -> None:
        """Install ``chunk`` at ``index`` (a new tuple for its group) and
        mark it dirty."""
        position, slot = divmod(index, GROUP_CHUNKS)
        groups = self._chunk_groups
        group = groups[position]
        groups[position] = group[:slot] + (chunk,) + group[slot + 1 :]
        self._dirty.add(index)

    # -- ranged access over the chunk table ---------------------------------
    def _read_range(self, offset: int, length: int) -> bytes:
        cs = self.chunk_size
        if length <= 0:
            return b""
        first, within = divmod(offset, cs)
        last = (offset + length - 1) // cs
        if first == last:
            return self._chunk(first)[within : within + length]
        lo, hi = first // GROUP_CHUNKS, last // GROUP_CHUNKS
        base = lo * GROUP_CHUNKS
        parts = list(islice(
            chain.from_iterable(self._chunk_groups[lo : hi + 1]),
            first - base, last - base + 1))
        parts[0] = parts[0][within:]
        parts[-1] = parts[-1][: offset + length - last * cs]
        return b"".join(parts)

    def _store_range(self, offset: int, data: bytes) -> None:
        """Copy-on-write store: only chunks whose content changes are
        replaced (and marked dirty); identical rewrites keep the shared
        chunk object so snapshot chains stay deduplicated.

        ``data`` may be any buffer; anything but ``bytes`` is copied to
        ``bytes`` once, so every compare runs bytes against bytes.  A
        changed chunk is always a new object, never the caller's: a
        whole-chunk read returns the chunk itself, and writing that
        object back later must not make the live table share it with a
        snapshot (restores count diverged chunks by identity).
        """
        if type(data) is not bytes:
            data = bytes(data)
        total = len(data)
        index, within = divmod(offset, self.chunk_size)
        consumed = 0
        while consumed < total:
            old = self._chunk(index)
            size = len(old)
            end = min(size, within + total - consumed)
            take = end - within
            piece = data if take == total else data[consumed : consumed + take]
            # startswith at ``within`` compares in place, without slicing
            if not old.startswith(piece, within):
                if take != size:
                    piece = old[:within] + piece + old[end:]
                elif piece is data:
                    piece = memoryview(data).tobytes()
                self._set_chunk(index, piece)
            consumed += take
            index += 1
            within = 0

    # -- snapshot / restore --------------------------------------------------
    @property
    def dirty_bytes_since_snapshot(self) -> int:
        """Bytes rewritten since the last chunk-table grab (what the next
        snapshot will have to account as newly copied)."""
        return sum(len(self._chunk(index)) for index in self._dirty)

    def snapshot_chunks(self) -> DiskSnapshot:
        """Checkpoint: freeze the chunk table, one reference per group.
        Only the chunks dirtied since the previous grab count as copied
        bytes -- the rest are shared with the parent snapshot."""
        self.stats.bytes_snapshotted += self.dirty_bytes_since_snapshot
        self._dirty.clear()
        return DiskSnapshot(
            device_name=self.name,
            size_bytes=self.size_bytes,
            chunk_size=self.chunk_size,
            groups=tuple(self._chunk_groups),
        )

    def restore_snapshot(self, snapshot: DiskSnapshot) -> int:
        """Swap the chunk table back to ``snapshot``; returns the number
        of bytes actually rewritten (chunks that diverged).

        A group tuple shared with the snapshot holds the same chunks by
        construction, so chunk identities are compared only inside the
        groups that diverged."""
        if snapshot.size_bytes != self.size_bytes or \
                snapshot.chunk_size != self.chunk_size:
            raise DeviceError(
                f"{self.name}: snapshot geometry {snapshot.size_bytes}/"
                f"{snapshot.chunk_size} does not match device "
                f"{self.size_bytes}/{self.chunk_size}"
            )
        changed = 0
        for new, current in zip(snapshot.groups, self._chunk_groups):
            if new is not current:
                changed += sum(len(chunk) for chunk, live in zip(new, current)
                               if chunk is not live)
        self._chunk_groups = list(snapshot.groups)
        self._dirty.clear()
        self.stats.bytes_restored += changed
        return changed

    def snapshot_image(self) -> bytes:
        """Materialize the whole device image (legacy callers and the
        offline fsck checkers need flat bytes).  Counted as snapshot
        traffic: unlike a chunk grab, this copies everything."""
        self.stats.bytes_snapshotted += self.size_bytes
        return b"".join(chain.from_iterable(self._chunk_groups))

    def restore_image(self, image: bytes) -> None:
        """Overwrite the device contents from a raw byte image.

        Re-chunks with content comparison so chunks that match the live
        content keep their identity (preserving sharing with existing
        snapshots); only diverging chunks count as restored bytes.
        """
        if len(image) != self.size_bytes:
            raise DeviceError(
                f"{self.name}: snapshot image is {len(image)} bytes, "
                f"device is {self.size_bytes}"
            )
        changed = 0
        position = 0
        # iterate a frozen copy: _set_chunk replaces group tuples
        frozen = tuple(chain.from_iterable(self._chunk_groups))
        for index, old in enumerate(frozen):
            piece = image[position : position + len(old)]
            if piece != old:
                self._set_chunk(index, piece)
                changed += len(old)
            position += len(old)
        self.stats.bytes_restored += changed


class BlockDevice(ChunkedStore):
    """A flat, sector-addressed storage device.

    Subclasses set the latency profile via ``access_cost`` (per request)
    and ``per_byte_cost``; the base class handles bounds checks, the
    copy-on-write chunk table, statistics, and snapshot/restore.
    """

    #: label used for clock accounting ("ram-io", "hdd-io", ...)
    cost_category = "block-io"
    access_cost = 0.0
    per_byte_cost = 0.0

    def __init__(
        self,
        size_bytes: int,
        sector_size: int = 512,
        clock: Optional[SimClock] = None,
        name: str = "dev",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        if size_bytes <= 0 or size_bytes % sector_size != 0:
            raise ValueError(
                f"device size {size_bytes} must be a positive multiple of "
                f"sector size {sector_size}"
            )
        self.size_bytes = size_bytes
        self.sector_size = sector_size
        self.clock = clock if clock is not None else SimClock()
        self.name = name
        self.stats = DeviceStats()
        self.read_only = False
        self._init_chunks(size_bytes, chunk_size)

    # -- raw byte access (used by file systems) --------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``, charging device latency."""
        if length < 0 or offset < 0 or offset + length > self.size_bytes:
            raise self._range_error(offset, length)
        self.clock.charge(self.access_cost + self.per_byte_cost * length,
                          self.cost_category)
        self.stats.read_requests += 1
        self.stats.bytes_read += length
        return self._read_range(offset, length)

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, charging device latency."""
        if self.read_only:
            raise DeviceError(f"{self.name}: device is read-only")
        length = len(data)
        if offset < 0 or offset + length > self.size_bytes:
            raise self._range_error(offset, length)
        self.clock.charge(self.access_cost + self.per_byte_cost * length,
                          self.cost_category)
        self.stats.write_requests += 1
        self.stats.bytes_written += length
        self._store_range(offset, data)

    def read_block(self, block_index: int, block_size: int) -> bytes:
        return self.read(block_index * block_size, block_size)

    def write_block(self, block_index: int, block_size: int, data: bytes) -> None:
        if len(data) > block_size:
            raise DeviceError(
                f"{self.name}: block write of {len(data)} bytes exceeds "
                f"block size {block_size}"
            )
        if len(data) < block_size:
            data = data + b"\x00" * (block_size - len(data))
        self.write(block_index * block_size, data)

    # -- helpers ----------------------------------------------------------------
    def _range_error(self, offset: int, length: int) -> DeviceError:
        return DeviceError(
            f"{self.name}: access [{offset}, {offset + length}) outside "
            f"device of {self.size_bytes} bytes"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, {self.size_bytes} bytes)"
