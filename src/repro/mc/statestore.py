"""Bitstate hashing (Spin ``-DBITSTATE``) and the store factory.

Figure 3's collapse is a *store* problem: the exact
:class:`~repro.mc.hashtable.VisitedStateTable` keeps a full concrete
snapshot per state, so a long run stalls when the table resizes and
crawls once the store spills into swap.  Spin's classic remedies trade a
quantified chance of *omitting* states for a bounded footprint.  There
are three store kinds behind the one
:class:`~repro.mc.hashtable.AbstractVisitedTable` interface:

========  ==========================================  ==================
kind      what is stored per state                    omission
========  ==========================================  ==================
exact     full digest + depth (``VisitedStateTable``  none
          with 16-byte keys)
hc        2/4/8-byte fingerprint + depth (the same    ``stored /
          class, narrower keys)                       2**(8*bytes)``
bitstate  ``k`` bits in one fixed array               ``(set/bits)**k``
          (:class:`BitstateTable`)
========  ==========================================  ==================

Every kind charges its true footprint to the attached
:class:`~repro.mc.memory.MemoryModel`, and every lossy kind reports
``omission_possible`` / ``omission_probability`` through
:class:`~repro.mc.hashtable.TableStats` so coverage loss is never
silent.

Seeded diversification (``seed=...``) re-mixes the hash positions /
fingerprints per store, which is what makes classic swarm+bitstate work:
members with different seeds omit *different* states, so the union
recovers coverage a single same-budget member loses
(``benchmarks/test_statestore.py`` builds such members by hand).  A
:mod:`repro.dist` fleet deliberately uses one seed -- its workers'
record keys must land on one shared table.

The spec grammar, the key derivation and the ``(key, depth)`` record
layout live in :mod:`repro.mc.records`; this module re-exports
:func:`parse_store_spec` and builds stores from specs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.mc.hashtable import (
    AbstractVisitedTable,
    Record,
    TableStats,
    VisitedStateTable,
)
from repro.mc.memory import MemoryModel
from repro.mc.records import (
    DEFAULT_BITS,
    DEFAULT_K,
    DIGEST_BYTES,
    DigestFn,
    StoreFormatError,
    StoreSpec,
    digest_of,
    hex_field,
    key_function,
    parse_store_spec,
    require,
    reseed,
)

__all__ = [
    "BitstateTable",
    "StoreSpec",
    "build_store",
    "make_store",
    "parse_store_spec",
    "store_from_document",
]


class BitstateTable(AbstractVisitedTable):
    """Supertrace/bitstate hashing: ``k`` bits per state, never resizes.

    The whole store is one fixed bit array: no per-state heap growth, so
    a Figure-3-length run never hits a resize stall or a swap-bound
    store.  The price is a quantified omission probability, exactly like
    Spin's ``-DBITSTATE``.

    Depth-bounded search needs one more thing: a known state re-reached
    at a *shallower* depth must be re-expanded, or frontier subtrees are
    silently truncated (the problem Spin's ``-DREACH`` solves for exact
    stores).  A pure bit array cannot remember depths, so the table
    keeps a second **fixed-size** saturating array of shallowest-depth
    slots, indexed by the state's first hash position.  Slot collisions
    can only *under*-trigger re-expansion (a colliding state's smaller
    depth masks ours), so the array stays an approximation -- but it is
    allocated once, like the bit array, preserving the zero-growth /
    zero-resize property.
    """

    #: depth-slot value meaning "no depth recorded yet"
    _DEPTH_UNSET = 0xFF

    def __init__(self, bits: int = DEFAULT_BITS, k: int = DEFAULT_K,
                 seed: int = 0, memory: Optional[MemoryModel] = None,
                 digest_fn: Optional[DigestFn] = None):
        if bits < 64:
            raise ValueError("a bitstate array needs at least 64 bits")
        if k < 1:
            raise ValueError("bitstate needs at least one bit per state")
        self.spec = StoreSpec(kind="bitstate", bits=bits, k=k)
        self.bits = bits
        self.k = k
        self.seed = seed
        self.memory = memory
        self._digest_fn = digest_fn
        self._key_of = key_function(self.spec, seed, digest_fn)
        self._array = bytearray(bits // 8 + 1)
        #: shallowest depth per slot (saturating at 0xFE; 0xFF = unset)
        self._depths = bytearray([self._DEPTH_UNSET]) * (bits // 8 + 1)
        self._set_bits = 0
        self._count = 0
        self.stats = TableStats(omission_possible=True,
                                stored_bytes=len(self._array)
                                + len(self._depths))
        if memory is not None:
            # both arrays are allocated once, up front -- this is the
            # whole footprint, which is why bitstate defers the
            # swap collapse
            memory.store_bytes(len(self._array) + len(self._depths))

    def _positions(self, raw: bytes):
        """The ``k`` bit positions of a 16-byte (unseeded) digest."""
        digest = reseed(raw, self.seed)
        first = int.from_bytes(digest[:8], "little")
        second = int.from_bytes(digest[8:], "little") | 1
        for i in range(self.k):
            yield (first + i * second) % self.bits

    def visit(self, state_hash: str, depth: int = 0) -> Tuple[bool, bool]:
        return self._visit_raw(digest_of(state_hash, self._digest_fn), depth)

    def visit_many(self, records: Iterable[Record]) -> List[bool]:
        visit_raw = self._visit_raw
        return [visit_raw(key.to_bytes(DIGEST_BYTES, "big"), depth)[0]
                for key, depth in records]

    def record_key(self, state_hash: str) -> int:
        """The whole digest as a 128-bit integer; the seed re-mix
        happens store-side, so shipped keys land on the same bits."""
        return self._key_of(state_hash)

    def _visit_raw(self, raw: bytes, depth: int) -> Tuple[bool, bool]:
        is_new = False
        slot = None
        for position in self._positions(raw):
            if slot is None:
                slot = position % len(self._depths)
            byte, bit = position >> 3, 1 << (position & 7)
            if not self._array[byte] & bit:
                is_new = True
                self._array[byte] |= bit
                self._set_bits += 1
        if self.memory is not None:
            self.memory.touch_bytes(self.k)
        clamped = min(depth, 0xFE)
        if is_new:
            self._count += 1
            self.stats.inserts += 1
            self.stats.omission_probability = self.false_hit_probability
            if clamped < self._depths[slot]:
                self._depths[slot] = clamped
            return True, True
        self.stats.duplicate_hits += 1
        if clamped < self._depths[slot]:
            # shallower re-reach: re-expand so the bounded search keeps
            # the subtree it would otherwise truncate
            self._depths[slot] = clamped
            return False, True
        return False, False

    def __len__(self) -> int:
        return self._count

    def __contains__(self, state_hash: str) -> bool:
        raw = digest_of(state_hash, self._digest_fn)
        return all(self._array[p >> 3] & (1 << (p & 7))
                   for p in self._positions(raw))

    @property
    def fill_ratio(self) -> float:
        return self._set_bits / self.bits

    @property
    def false_hit_probability(self) -> float:
        """Probability that a *fresh* state finds all ``k`` bits set."""
        return self.fill_ratio ** self.k

    # -------------------------------------------------------------- persist --
    def visited_fingerprint(self) -> str:
        """MD5 over the bit array and depth slots.

        Bitstate's *content* is its arrays: two tables whose arrays match
        behave identically forever after, whatever their state *count*
        (an estimate a bit array cannot recover) -- so the count is
        deliberately excluded.
        """
        return hashlib.md5(bytes(self._array)
                           + bytes(self._depths)).hexdigest()

    def store_document(self) -> Dict:
        return {
            "kind": "bitstate",
            "bits": self.bits,
            "k": self.k,
            "seed": self.seed,
            "count": self._count,
            "array": bytes(self._array).hex(),
            "depths": bytes(self._depths).hex(),
        }

    @classmethod
    def from_document(cls, document: Mapping,
                      memory: Optional[MemoryModel] = None) -> "BitstateTable":
        table = cls(bits=int(require(document, "bits")),
                    k=int(require(document, "k")),
                    seed=int(require(document, "seed")), memory=memory)
        for name in ("array", "depths"):
            loaded = bytearray(hex_field(document, name))
            if len(loaded) != len(table._array):
                raise StoreFormatError(
                    f"{name}: {len(loaded)} bytes, but a {table.bits}-bit "
                    f"store holds {len(table._array)}")
            setattr(table, "_" + name, loaded)
        table._set_bits = sum(bin(byte).count("1") for byte in table._array)
        table._count = int(require(document, "count"))
        table.stats.inserts = table._count
        table.stats.omission_probability = table.false_hit_probability
        return table


# ----------------------------------------------------------------- factory --
def build_store(spec: StoreSpec, memory: Optional[MemoryModel] = None,
                seed: int = 0) -> AbstractVisitedTable:
    """Construct ``spec``'s store (``seed`` diversifies lossy hashing)."""
    if spec.kind == "bitstate":
        return BitstateTable(bits=spec.bits, k=spec.k, seed=seed,
                             memory=memory)
    return VisitedStateTable(memory=memory, key_bytes=spec.key_bytes,
                             seed=seed)


def make_store(spec: str, memory: Optional[MemoryModel] = None,
               seed: int = 0) -> AbstractVisitedTable:
    """One-call convenience: parse a spec string and build the store."""
    return build_store(parse_store_spec(spec), memory=memory, seed=seed)


def store_from_document(document: Mapping,
                        memory: Optional[MemoryModel] = None
                        ) -> AbstractVisitedTable:
    """Rebuild a store from a snapshot's ``store`` record."""
    kind = require(document, "kind")
    if kind in ("exact", "hc"):
        return VisitedStateTable.from_document(document, memory=memory)
    if kind == "bitstate":
        return BitstateTable.from_document(document, memory=memory)
    raise StoreFormatError(f"store.kind: unknown store kind {kind!r}")
