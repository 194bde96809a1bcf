"""Worker-side visited-table plumbing: local decisions, batched shipping.

:class:`ShippingVisitedTable` is the pluggable visited table a worker
hands its explorer.  The contract that keeps distributed runs
deterministic:

* **Expansion decisions are purely local.**  ``visit`` consults only the
  unit's private store, so a unit explores identically whether it runs
  alone, alongside three other workers, or as a re-issued lease after a
  crash.
* **Every locally-new state reaches the shared store exactly-or-more
  than once.**  New states are buffered as ``(record key, depth)``
  records and shipped in batches; the exact :class:`LRUSet` of
  already-shipped keys suppresses re-sends across units of the same
  worker.  Suppression is never probabilistic -- at worst an evicted
  key ships twice and the receiving store deduplicates -- so the global
  union is exact.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from repro.mc.hashtable import AbstractVisitedTable, Record, VisitedStateTable

#: ship callback: receives a drained batch of (record key, depth) pairs
ShipFn = Callable[[List[Record]], None]


class LRUSet:
    """A bounded set with least-recently-used eviction (exact membership)."""

    def __init__(self, capacity: int = 1 << 16):
        if capacity < 1:
            raise ValueError("LRUSet capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[int, None]" = OrderedDict()
        self.evictions = 0

    def add(self, item) -> None:
        if item in self._entries:
            self._entries.move_to_end(item)
            return
        self._entries[item] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __contains__(self, item) -> bool:
        if item in self._entries:
            self._entries.move_to_end(item)  # a hit refreshes recency
            return True
        return False


class ShippingVisitedTable(AbstractVisitedTable):
    """A per-unit local table that streams its discoveries onward.

    The local table can be any store kind.  What ships is the local
    store's :meth:`~repro.mc.hashtable.AbstractVisitedTable.record_key`
    -- the integer the campaign's store matches on -- so the LRU
    suppression layer, the wire batches and the campaign's table all
    key identically.
    """

    def __init__(self, ship: ShipFn,
                 local: Optional[AbstractVisitedTable] = None,
                 shipped_lru: Optional[LRUSet] = None,
                 batch_size: int = 64):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._ship = ship
        self.local = local if local is not None else VisitedStateTable()
        self.memory = self.local.memory
        self.shipped_lru = shipped_lru if shipped_lru is not None else LRUSet()
        self.batch_size = batch_size
        self._buffer: List[Record] = []
        self.shipped_hashes = 0
        self.suppressed_hashes = 0

    @property
    def stats(self):
        return self.local.stats

    # ---------------------------------------------------------------- visit --
    def visit(self, state_hash: str, depth: int = 0) -> Tuple[bool, bool]:
        is_new, should_expand = self.local.visit(state_hash, depth)
        if is_new:
            key = self.local.record_key(state_hash)
            if key in self.shipped_lru:
                # exact hit: this worker already shipped it (earlier unit)
                self.suppressed_hashes += 1
            else:
                self._buffer.append((key, depth))
                self.shipped_lru.add(key)
                if len(self._buffer) >= self.batch_size:
                    self.flush()
        return is_new, should_expand

    def __len__(self) -> int:
        return len(self.local)

    def __contains__(self, state_hash: str) -> bool:
        return state_hash in self.local

    # ----------------------------------------------------------------- wire --
    def flush(self) -> None:
        """Drain the batch buffer through the ship callback."""
        if self._buffer:
            batch = list(self._buffer)
            self._buffer.clear()
            self.shipped_hashes += len(batch)
            self._ship(batch)
