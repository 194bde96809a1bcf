"""Shared-memory state plane: single-writer segments, exact union.

The distributed fleet's original data plane funnelled every locally-new
state through one coordinator-owned table over pickle-per-message pipe
RPC.  This module replaces that round-trip with **single-writer
ownership over shared memory**:

* every worker owns exactly one :class:`ShardSegment` -- a fixed-size
  ``multiprocessing.shared_memory`` buffer it alone writes -- so
  publishing a discovery is a few buffer stores, not an RPC;
* a segment is one open-addressed table of fixed-width ``(key, depth)``
  records in the :mod:`repro.mc.records` layout, so the coordinator
  reads it with the same reader that decodes wire batches and snapshot
  payloads;
* the coordinator may read a live segment lock-free: the single-writer
  discipline plus presence-marker-written-last slot encoding means a
  racing reader can only ever miss an in-flight entry (a benign
  false-absent), never observe a torn one;
* the authoritative union is assembled once, after the fleet stops, by
  replaying the sorted union of all segments into the campaign's store
  -- a canonical order, so the merged store is byte-identical for any
  worker count, crash schedule, or interleaving.

Why the segments hold *key sets* rather than, say, one shared bitstate
array all workers OR bits into: pure Python has no atomic read-modify-
write, so concurrent writers to shared words would lose updates --
turning bitstate's *quantified* omission probability into a silent,
nondeterministic one.  Single-writer key sets keep the global union
exact-or-bounded exactly as the RPC plane's: what rides the segment is
precisely what rides a packed wire batch (the store's record key plus
the discovery depth), and the local decision store -- including a
memory-bounded bitstate/hc one -- is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.mc.records import (
    DEPTH_BYTES,
    DEPTH_MAX,
    pack_records,
    read_records,
)

try:  # the plane degrades to RPC where the OS offers no shared memory
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - every supported platform has it
    _shared_memory = None


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` can back segments."""
    return _shared_memory is not None


class ShardFull(RuntimeError):
    """A segment ran out of slots (caller should overflow to RPC)."""


@dataclass(frozen=True)
class ShardLayout:
    """Geometry of one segment; plain numbers, so it rides any wire.

    Workers receive the layout plus their segment's *name* and reattach
    on their side -- raw :class:`~multiprocessing.shared_memory.SharedMemory`
    handles must never be pickled.
    """

    slots: int
    key_bytes: int

    def __post_init__(self):
        if self.slots < 8:
            raise ValueError("a segment needs at least 8 slots")

    @property
    def slot_bytes(self) -> int:
        return self.key_bytes + DEPTH_BYTES

    @property
    def segment_bytes(self) -> int:
        return self.slots * self.slot_bytes


class ShardSegment:
    """One writer's open-addressed ``(key, depth)`` set.

    Backed by a named ``SharedMemory`` buffer -- or, for in-process use
    (tests), a plain ``bytearray`` of the same layout.  Exactly one
    process may call :meth:`insert`; any number may call
    :meth:`depth_of` or :meth:`entries`.
    """

    def __init__(self, layout: ShardLayout, name: Optional[str] = None,
                 create: bool = False,
                 buffer: Optional[bytearray] = None):
        self.layout = layout
        self.name = name
        self._shm = None
        if buffer is not None:
            if len(buffer) < layout.segment_bytes:
                raise ValueError("segment buffer smaller than the layout")
            self._buf = memoryview(buffer)
        else:
            if _shared_memory is None:
                raise RuntimeError("shared memory is not available here")
            if create:
                self._shm = _shared_memory.SharedMemory(
                    create=True, name=name, size=layout.segment_bytes)
                self.name = self._shm.name
            else:
                if name is None:
                    raise ValueError("attaching needs a segment name")
                self._shm = _shared_memory.SharedMemory(name=name)
            self._buf = self._shm.buf

    # -------------------------------------------------------------- attach --
    @classmethod
    def attach(cls, layout: ShardLayout, name: str,
               untrack: bool = True) -> "ShardSegment":
        """Attach to a coordinator-created segment from another process.

        With ``untrack`` (the default) the per-process
        ``resource_tracker`` is told to forget the segment: the
        coordinator owns creation *and* unlinking, and an independent
        process's tracker would otherwise destroy the live segment
        under the rest of the fleet when that process exits (Python
        3.8+ registers attached segments as if they were owned).

        **Forked** fleet workers pass ``untrack=False``: they share the
        coordinator's tracker process, so unregistering would strip the
        *creator's* registration instead (and the fork-shared tracker
        only cleans up when the whole session dies, which is exactly the
        leak protection we want to keep).
        """
        segment = cls(layout, name=name, create=False)
        if untrack:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._shm._name,
                                            "shared_memory")
            except Exception:
                pass  # best effort; worst case is a noisy tracker warning
        return segment

    # --------------------------------------------------------------- access --
    def _probe(self, key: int, raw: bytes) -> Tuple[int, Optional[int]]:
        """Find the slot of ``key`` (``raw`` = its packed key bytes):
        returns ``(offset, depth)`` where depth is None for an empty
        slot the key would occupy."""
        layout = self.layout
        slot_bytes = layout.slot_bytes
        key_bytes = layout.key_bytes
        slots = layout.slots
        start = key % slots
        buf = self._buf
        for step in range(slots):
            offset = ((start + step) % slots) * slot_bytes
            marker = int.from_bytes(
                buf[offset + key_bytes:offset + slot_bytes], "little")
            if marker == 0:
                return offset, None
            if buf[offset:offset + key_bytes] == raw:
                return offset, marker - 1
        raise ShardFull(
            f"segment {self.name or '<local>'} is full ({slots} slots); "
            f"raise the slot count or let the caller overflow to the "
            f"RPC plane"
        )

    def insert(self, key: int, depth: int = 0) -> Tuple[bool, bool]:
        """Insert (or depth-update) ``key``; ``(is_new, should_expand)``.

        Same shallowest-depth re-expansion contract as every visited
        table: a known key re-reached shallower must be expanded again.
        Writer-only.  The key bytes land before the presence marker, so
        concurrent readers never see a half-written slot as present.
        """
        depth = min(int(depth), DEPTH_MAX)
        key_bytes = self.layout.key_bytes
        record = pack_records(((key, depth),), key_bytes)
        offset, existing = self._probe(key, record[:key_bytes])
        if existing is not None and depth >= existing:
            return False, False
        if existing is None:
            self._buf[offset:offset + key_bytes] = record[:key_bytes]
        self._buf[offset + key_bytes:offset + len(record)] = \
            record[key_bytes:]
        return existing is None, True

    def depth_of(self, key: int) -> Optional[int]:
        """Lock-free probe (safe from any process): the stored depth,
        or None when ``key`` is absent."""
        raw = pack_records(((key, 0),), self.layout.key_bytes)
        try:
            return self._probe(key, raw[:self.layout.key_bytes])[1]
        except ShardFull:
            return None

    def entries(self) -> Iterator[Tuple[int, int]]:
        """Every stored ``(key, depth)``, in slot order (callers sort):
        the shared record reader over the segment's own memory."""
        return read_records(self._buf[:self.layout.segment_bytes],
                            self.layout.key_bytes)

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    # ------------------------------------------------------------ lifecycle --
    def close(self) -> None:
        """Drop this process's mapping (the segment itself lives on)."""
        if self._shm is not None:
            self._buf = memoryview(b"")
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Destroy the OS segment (creator only, exactly once)."""
        if self._shm is not None:
            shm = self._shm
            self._buf = memoryview(b"")
            self._shm = None
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass  # already gone (e.g. a second cleanup pass)
