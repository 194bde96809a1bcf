"""Store specs, store keys and ``(key, depth)`` records.

Every layer that holds, ships or persists visited states needs the same
two decisions, and this module is the only place that makes them:

* **how a state hash becomes a store key** -- :func:`key_function`, a
  function of the parsed :class:`StoreSpec` and the store seed.  Exact
  and bitstate stores key on the full 128-bit digest; hash compaction
  keys on a 2/4/8-byte fingerprint of the (seed-mixed) digest.
* **how a ``(key, depth)`` record is laid out in bytes** --
  :func:`pack_records` / :func:`read_records`: ``key`` little-endian in
  ``key_bytes`` bytes, then ``depth + 1`` as a little-endian u32.  One
  reader decodes a wire batch and a snapshot's ``entries`` payload
  alike; no writer produces a zero depth field, so it refuses one.

The spec grammar (``--state-store``) lives here too, because the key
width is a property of the spec::

    exact | hc[:fp_bytes] | bitstate[:bits,k]
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Tuple

#: width of the full abstract-state digest (MD5)
DIGEST_BYTES = 16

#: record depth field: ``depth + 1`` as an unsigned 32-bit integer
DEPTH_BYTES = 4

#: largest depth a record can carry (saturating clamp)
DEPTH_MAX = 0xFFFFFFFE

#: bookkeeping footprint of one exact-table entry: the 128-bit digest
#: kept as a 32-byte hex string plus an 8-byte shallowest-depth slot
EXACT_ENTRY_BYTES = 40

DEFAULT_FP_BYTES = 4
DEFAULT_BITS = 1 << 23  # 1 MiB bit array
DEFAULT_K = 3

#: optional test hook type: maps a state hash to a 16-byte digest
DigestFn = Callable[[str], bytes]

_GRAMMAR = "exact | hc[:bytes] | bitstate[:bits,k]"


class StoreFormatError(ValueError):
    """A persisted or shipped store payload is malformed, or cannot be
    resumed by the run at hand.

    Raised (never ``KeyError``, never a silent partial load) for an
    unsupported snapshot version, a missing field, a packed payload
    truncated mid-record or holding a zero depth marker, mismatched
    bitstate array lengths, an unknown store kind, a snapshot whose
    store keys states differently from the resuming run's, and a torn
    or incomplete campaign-server spool document; the message names
    the offending field.
    """


def require(document, name: str):
    """``document[name]``, or the typed error naming the missing field."""
    try:
        return document[name]
    except (KeyError, TypeError):
        raise StoreFormatError(f"missing field {name!r}") from None


def hex_field(document, name: str) -> bytes:
    """Decode the hex-encoded byte payload stored under ``name``."""
    text = require(document, name)
    try:
        return bytes.fromhex(text)
    except (ValueError, TypeError):
        raise StoreFormatError(f"{name}: not a hex payload") from None


# ------------------------------------------------------------------- specs --
@dataclass(frozen=True)
class StoreSpec:
    """A parsed ``--state-store`` argument; picklable and hashable."""

    kind: str  # "exact" | "hc" | "bitstate"
    fp_bytes: int = DEFAULT_FP_BYTES
    bits: int = DEFAULT_BITS
    k: int = DEFAULT_K

    @property
    def key_bytes(self) -> int:
        """Width of this store's key in a ``(key, depth)`` record."""
        return self.fp_bytes if self.kind == "hc" else DIGEST_BYTES

    @property
    def entry_bytes(self) -> int:
        """Bookkeeping bytes one stored state costs a keyed table."""
        if self.kind == "hc":
            return self.fp_bytes + DEPTH_BYTES
        return EXACT_ENTRY_BYTES

    def describe(self) -> str:
        if self.kind == "hc":
            return f"hc:{self.fp_bytes}"
        if self.kind == "bitstate":
            return f"bitstate:{self.bits},{self.k}"
        return self.kind

    def planned_bytes(self, expected_states: int) -> int:
        """Worst-case store footprint for a campaign expected to visit
        at most ``expected_states`` distinct states.

        The campaign server charges this *reservation* against a
        tenant's memory budget at admission time (before any state has
        been stored), so the bound must be closed-form: keyed tables
        grow per state (every operation could discover a new state);
        bitstate is its two fixed arrays regardless of traffic.
        """
        if self.kind == "bitstate":
            return 2 * (self.bits // 8 + 1)  # bit array + depth slots
        return expected_states * self.entry_bytes


def parse_store_spec(text: str) -> StoreSpec:
    """Parse ``exact | hc[:bytes] | bitstate[:bits,k]``."""
    kind, separator, params = text.strip().partition(":")
    kind = kind.lower()
    if separator and not params:
        raise ValueError(f"bad state-store spec {text!r}: "
                         f"':' must be followed by parameters")
    try:
        if kind == "exact":
            if params:
                raise ValueError("exact takes no parameters")
            return StoreSpec(kind="exact")
        if kind == "hc":
            fp_bytes = int(params) if params else DEFAULT_FP_BYTES
            if fp_bytes not in (2, 4, 8):
                raise ValueError("hash compaction supports 2/4/8-byte "
                                 "fingerprints")
            return StoreSpec(kind="hc", fp_bytes=fp_bytes)
        if kind == "bitstate":
            bits, k = DEFAULT_BITS, DEFAULT_K
            if params:
                first, _, second = params.partition(",")
                bits = int(first)
                if second:
                    k = int(second)
            return StoreSpec(kind="bitstate", bits=bits, k=k)
    except ValueError as error:
        raise ValueError(f"bad state-store spec {text!r}: {error}") from None
    raise ValueError(f"unknown state-store {text!r}; expected {_GRAMMAR}")


# -------------------------------------------------------------------- keys --
def digest_of(state_hash: str, digest_fn: Optional[DigestFn] = None) -> bytes:
    """The 16 bytes every store derives its key or bit positions from.

    Abstract-state hashes are already MD5 hex digests, so the fast path
    just decodes them; anything else (ad-hoc test keys) hashes through
    MD5 first.
    """
    if digest_fn is not None:
        return digest_fn(state_hash)
    try:
        raw = bytes.fromhex(state_hash)
    except ValueError:
        raw = b""
    if len(raw) != DIGEST_BYTES:
        raw = hashlib.md5(state_hash.encode("utf-8")).digest()
    return raw


def reseed(raw: bytes, seed: int) -> bytes:
    """Re-mix a digest so differently-seeded stores collide on
    *different* state pairs (seed 0 leaves it untouched)."""
    if seed:
        return hashlib.md5(seed.to_bytes(8, "big", signed=True) + raw).digest()
    return raw


def key_function(spec: StoreSpec, seed: int = 0,
                 digest_fn: Optional[DigestFn] = None
                 ) -> Callable[[str], int]:
    """How a state hash becomes the integer key ``spec``'s store matches
    on -- the key that rides wire batches and snapshots.

    Hash compaction keys on the first ``fp_bytes`` of the seed-mixed
    digest.  Exact and bitstate key on the whole *unseeded* digest as a
    128-bit integer (bitstate mixes its seed in store-side, when it
    derives bit positions), so ``format(key, "032x")`` is the state
    hash again.
    """
    if spec.kind == "hc":
        width = spec.fp_bytes

        def fingerprint(state_hash: str) -> int:
            raw = reseed(digest_of(state_hash, digest_fn), seed)
            return int.from_bytes(raw[:width], "little")

        return fingerprint

    def digest_key(state_hash: str) -> int:
        return int.from_bytes(digest_of(state_hash, digest_fn), "big")

    return digest_key


# ----------------------------------------------------------------- records --
def pack_records(records: Iterable[Tuple[int, int]], key_bytes: int) -> bytes:
    """Lay ``(key, depth)`` records out as one flat byte string.

    The one writer: a wire batch and a snapshot ``entries`` payload are
    both these bytes.
    """
    packed = bytearray()
    for key, depth in records:
        packed += key.to_bytes(key_bytes, "little")
        packed += (min(depth, DEPTH_MAX) + 1).to_bytes(DEPTH_BYTES, "little")
    return bytes(packed)


def read_records(buffer, key_bytes: int) -> Iterator[Tuple[int, int]]:
    """Every ``(key, depth)`` record in ``buffer``, in order.

    The one reader.  A buffer that ends mid-record, or a record whose
    depth field is zero, is refused, not half-read.
    """
    stride = key_bytes + DEPTH_BYTES
    if len(buffer) % stride:
        raise StoreFormatError(
            f"entries: {len(buffer)} bytes is not a multiple of the "
            f"{stride}-byte record size")
    for offset in range(0, len(buffer), stride):
        marker = int.from_bytes(buffer[offset + key_bytes:offset + stride],
                                "little")
        if not marker:
            raise StoreFormatError(
                f"entries: the record at byte offset {offset} has a zero "
                f"depth marker")
        yield (int.from_bytes(buffer[offset:offset + key_bytes], "little"),
               marker - 1)
