"""The visited-state hash table (Spin's state store).

Spin detects already-visited states by comparing tracked state against
everything seen before; with ``c_track``'s abstract/concrete split, only
the abstract hashes are matched.  Two behaviours of the real store are
modelled because they are visible in the paper's Figure 3:

* **resize stalls** -- "this rate then dropped drastically and swap usage
  spiked because Spin was resizing its hash table of visited states";
  growing the table costs time proportional to the number of stored
  states;
* **memory pressure** -- each stored state consumes RAM and eventually
  swap, via the attached :class:`~repro.mc.memory.MemoryModel`.

:class:`VisitedStateTable` is the one keyed store: a map from store key
to shallowest depth whose only parameter is the key width.  With the
full 128-bit digest as key it is the **exact** table (matching is
collision-free up to MD5 itself); with a 2/4/8-byte fingerprint it is
Spin's ``-DHC`` **hash compaction**.  The one genuinely different lossy
mode, bitstate hashing, lives in :mod:`repro.mc.statestore` behind the
same :class:`AbstractVisitedTable` interface.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.clock import Cost
from repro.mc.memory import MemoryModel
from repro.mc.records import (
    DIGEST_BYTES,
    EXACT_ENTRY_BYTES,
    DigestFn,
    StoreSpec,
    hex_field,
    key_function,
    pack_records,
    read_records,
    require,
)

#: what a keyed table indexes its map by: the 32-char hex digest (exact)
#: or a compacted integer fingerprint (hash compaction)
StateKey = Union[str, int]

#: a ``(key, depth)`` record as :mod:`repro.mc.records` reads it
Record = Tuple[int, int]

#: the bucket array doubles once it holds more than this share of entries
MAX_LOAD_FACTOR = 0.75


@dataclass
class TableStats:
    inserts: int = 0
    duplicate_hits: int = 0
    resizes: int = 0
    resize_time: float = 0.0
    #: bookkeeping bytes the store itself occupies (hash entries,
    #: fingerprints, or the bitstate bit array -- not concrete states)
    stored_bytes: int = 0
    #: True when the store is lossy: a reported duplicate hit may have
    #: been a fingerprint/bit collision, silently omitting a state
    omission_possible: bool = False
    #: current per-query probability that a *fresh* state is wrongly
    #: reported as visited (0.0 for exact stores)
    omission_probability: float = 0.0

    @property
    def visits(self) -> int:
        return self.inserts + self.duplicate_hits

    @property
    def duplicate_hit_ratio(self) -> float:
        """Fraction of visits that matched an already-stored state."""
        return self.duplicate_hits / self.visits if self.visits else 0.0

    @property
    def bits_per_state(self) -> float:
        """Store bookkeeping bits per distinct stored state."""
        return self.stored_bytes * 8 / self.inserts if self.inserts else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "inserts": self.inserts,
            "duplicate_hits": self.duplicate_hits,
            "resizes": self.resizes,
            "resize_time": self.resize_time,
            "stored_bytes": self.stored_bytes,
            "omission_possible": self.omission_possible,
            "omission_probability": self.omission_probability,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "TableStats":
        """Rebuild from :meth:`to_dict` output (missing keys default)."""
        return cls(
            inserts=int(document.get("inserts", 0)),
            duplicate_hits=int(document.get("duplicate_hits", 0)),
            resizes=int(document.get("resizes", 0)),
            resize_time=float(document.get("resize_time", 0.0)),
            stored_bytes=int(document.get("stored_bytes", 0)),
            omission_possible=bool(document.get("omission_possible", False)),
            omission_probability=float(
                document.get("omission_probability", 0.0)),
        )


class AbstractVisitedTable(ABC):
    """What the explorer needs from a visited-state store.

    The concrete :class:`VisitedStateTable` is the in-process default
    (exact or hash-compacted) and :mod:`repro.mc.statestore` provides
    bitstate.

    The two stores a campaign can hold also share ``record_key(hash)``
    (the integer a worker ships and a snapshot persists, see
    :func:`repro.mc.records.key_function`), ``visit_many(records)`` (one
    ``is_new`` flag per ``(key, depth)`` record: a whole wire batch in
    one call) and ``visited_fingerprint()`` (a digest of the visited
    set's content, equal for two stores of one kind holding one set
    whatever the insertion order or worker count).
    """

    #: optional RAM/swap model (the explorer samples its swap usage)
    memory: Optional[MemoryModel] = None
    stats: TableStats
    #: what the store is and how it keys states (a snapshot resumes
    #: only into a run whose spec and lossy seed match,
    #: :mod:`repro.mc.persistence`)
    spec: StoreSpec
    seed: int

    @abstractmethod
    def visit(self, state_hash: str, depth: int = 0) -> Tuple[bool, bool]:
        """Record a visit; return ``(is_new, should_expand)``."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of distinct states stored."""

    def add(self, state_hash: str) -> bool:
        """Insert a state hash; return True if it was new."""
        is_new, _ = self.visit(state_hash, depth=0)
        return is_new


class VisitedStateTable(AbstractVisitedTable):
    """A map from store key to the shallowest depth it was reached at.

    ``key_bytes`` is the only parameter that changes what the table
    *is*: 16 keeps the full digest (as its 32-char hex string, so the
    explorer's visit is a plain dict probe) and matching is exact; 2, 4
    or 8 keeps a compacted fingerprint of the (``seed``-mixed) digest --
    Spin's ``-DHC``.  Two distinct states colliding on a fingerprint
    omit the younger one, with per-query probability
    ``stored / 2**(8*key_bytes)``, reported through :class:`TableStats`.

    An exact entry costs :data:`EXACT_ENTRY_BYTES` of bookkeeping and
    charges the memory model one concrete snapshot; a compacted entry
    costs ``key_bytes + 4`` and charges only those bytes, because no
    snapshot is retained.
    """

    def __init__(self, memory: Optional[MemoryModel] = None,
                 initial_buckets: int = 1 << 10,
                 key_bytes: int = DIGEST_BYTES, seed: int = 0,
                 digest_fn: Optional[DigestFn] = None):
        if key_bytes == DIGEST_BYTES:
            self.spec = StoreSpec(kind="exact")
        elif key_bytes in (2, 4, 8):
            self.spec = StoreSpec(kind="hc", fp_bytes=key_bytes)
        else:
            raise ValueError("a keyed table holds the full 16-byte digest "
                             "or a 2/4/8-byte fingerprint")
        self.key_bytes = key_bytes
        self.seed = seed
        self.exact = key_bytes == DIGEST_BYTES
        self.entry_bytes = self.spec.entry_bytes
        self.memory = memory
        self.buckets = initial_buckets
        self._key_of = key_function(self.spec, seed, digest_fn)
        #: store key -> shallowest depth at which the state was reached
        self._seen: Dict[StateKey, int] = {}
        self.stats = TableStats(omission_possible=not self.exact)

    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, state_hash: str) -> bool:
        return self._store_key(state_hash) in self._seen

    # ----------------------------------------------------------------- keys --
    def record_key(self, state_hash: str) -> int:
        return self._key_of(state_hash)

    def _store_key(self, state_hash: str) -> StateKey:
        """What ``_seen`` is indexed by: the hex digest itself when
        exact (no conversion on the explorer's path), else the
        fingerprint."""
        return state_hash if self.exact else self._key_of(state_hash)

    def _from_record(self, key: int) -> StateKey:
        return format(key, "032x") if self.exact else key

    # ---------------------------------------------------------------- visit --
    def _put(self, key: StateKey, depth: int) -> Optional[int]:
        """Insert ``key`` or lower its depth; return the depth it held
        before (None = it was new).

        The one place an entry is written: visits, record batches and
        snapshot loads all land here, so footprint, memory charge,
        omission probability and resize stalls are accounted
        identically on every path.
        """
        existing = self._seen.get(key)
        if existing is None:
            self._seen[key] = depth
            self.stats.inserts += 1
            self.stats.stored_bytes += self.entry_bytes
            if not self.exact:
                self.stats.omission_probability = self.false_hit_probability
            if self.memory is not None:
                charge = self._charge_bytes()
                self.memory.store_bytes(charge)
                self.memory.touch_bytes(charge)
            if len(self._seen) > self.buckets * MAX_LOAD_FACTOR:
                self._resize()
        elif depth < existing:
            self._seen[key] = depth
        return existing

    def _visit_key(self, key: StateKey, depth: int) -> Tuple[bool, bool]:
        existing = self._put(key, depth)
        if existing is None:
            return True, True
        self.stats.duplicate_hits += 1
        if self.memory is not None:
            self.memory.touch_bytes(self._charge_bytes())
        return False, depth < existing

    def visit(self, state_hash: str, depth: int = 0) -> Tuple[bool, bool]:
        """Record a state visit; return ``(is_new, should_expand)``.

        Like Spin, the table remembers the shallowest depth at which each
        state was reached: a known state re-reached at a *smaller* depth
        must be expanded again, otherwise depth-bounded search silently
        loses the deeper part of its subtree (states first discovered at
        the depth frontier would never be expanded at all).
        """
        return self._visit_key(self._store_key(state_hash), depth)

    def visit_many(self, records: Iterable[Record]) -> List[bool]:
        from_record, visit_key = self._from_record, self._visit_key
        return [visit_key(from_record(key), depth)[0]
                for key, depth in records]

    def _charge_bytes(self) -> int:
        """What one stored state costs the memory model: the exact
        table retains a concrete snapshot, compaction only its entry."""
        return self.memory.state_bytes if self.exact else self.entry_bytes

    @property
    def false_hit_probability(self) -> float:
        """Probability a fresh state's key collides with a stored one
        (birthday-style per-query bound; 0.0 when exact)."""
        if self.exact:
            return 0.0
        return len(self._seen) / float(1 << (8 * self.key_bytes))

    def visited_fingerprint(self) -> str:
        """MD5 over the sorted ``key:depth`` entries (order-free)."""
        ctx = hashlib.md5()
        for key in sorted(self._seen):
            ctx.update(f"{key}:{self._seen[key]}\n".encode())
        return ctx.hexdigest()

    # -------------------------------------------------------------- persist --
    def records(self) -> List[Record]:
        """Every entry as a ``(key, depth)`` record, sorted by key, so
        anything written from it is identical for any insertion
        history reaching the same set."""
        if self.exact:
            key_of = self._key_of
            return sorted((key_of(state_hash), depth)
                          for state_hash, depth in self._seen.items())
        return sorted(self._seen.items())

    def export_seen(self) -> Dict[StateKey, int]:
        """A copy of the stored ``key -> shallowest depth`` mapping
        (state hashes when exact).

        Public boundary for coverage accounting; callers must not reach
        into ``_seen`` directly.
        """
        return dict(self._seen)

    def store_document(self) -> Dict[str, Any]:
        """The snapshot ``store`` record: parameters plus the sorted
        packed entries."""
        document: Dict[str, Any] = {"kind": self.spec.kind}
        if not self.exact:
            document["fp_bytes"] = self.key_bytes
        document["seed"] = self.seed
        document["buckets"] = self.buckets
        document["entries"] = pack_records(self.records(),
                                           self.key_bytes).hex()
        return document

    @classmethod
    def from_document(cls, document: Mapping,
                      memory: Optional[MemoryModel] = None
                      ) -> "VisitedStateTable":
        key_bytes = (DIGEST_BYTES if require(document, "kind") == "exact"
                     else int(require(document, "fp_bytes")))
        table = cls(memory=memory, key_bytes=key_bytes,
                    seed=int(require(document, "seed")),
                    initial_buckets=int(require(document, "buckets")))
        put, from_record = table._put, table._from_record
        for key, depth in read_records(hex_field(document, "entries"),
                                       key_bytes):
            put(from_record(key), depth)
        return table

    def _resize(self) -> None:
        """Double the bucket array, rehashing every stored state.

        This is the stall Figure 3 shows around day 3: the whole store is
        rehashed, and when it no longer fits in RAM the rehash sweeps
        through swap.  The stall shrinks with the entries: compacted
        records sweep far fewer bytes than full exact ones.
        """
        self.buckets *= 2
        self.stats.resizes += 1
        scale = self.entry_bytes / EXACT_ENTRY_BYTES
        cost = Cost.HASH_RESIZE_PER_STATE * len(self._seen) * scale
        if self.memory is not None:
            # Rehashing touches every state; the swap-resident fraction
            # pays swap latency, which is what makes the spike dramatic.
            hit = self.memory.ram_hit_ratio()
            cost += ((1.0 - hit) * Cost.SWAP_STATE_TOUCH
                     * len(self._seen) * scale)
            self.memory.clock.charge(cost, "hash-resize")
            self.stats.resize_time += cost
