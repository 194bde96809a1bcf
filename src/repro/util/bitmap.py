"""A fixed-size allocation bitmap, as used by ext2/ext4-style allocators.

The bitmap serialises to exactly ``ceil(nbits / 8)`` bytes so the file
systems can store it verbatim in their on-disk layout and reload it at
mount time.
"""

from __future__ import annotations

from typing import Iterator, Optional


class Bitmap:
    """Fixed-size bitmap with first-fit and next-fit allocation."""

    def __init__(self, nbits: int):
        if nbits <= 0:
            raise ValueError(f"bitmap needs at least one bit, got {nbits}")
        self.nbits = nbits
        self._bits = bytearray((nbits + 7) // 8)
        self._set_count = 0

    # -- basic bit operations -------------------------------------------------
    def get(self, index: int) -> bool:
        self._check(index)
        return bool(self._bits[index >> 3] & (1 << (index & 7)))

    def set(self, index: int) -> None:
        self._check(index)
        byte, mask = index >> 3, 1 << (index & 7)
        if not self._bits[byte] & mask:
            self._bits[byte] |= mask
            self._set_count += 1

    def clear(self, index: int) -> None:
        self._check(index)
        byte, mask = index >> 3, 1 << (index & 7)
        if self._bits[byte] & mask:
            self._bits[byte] &= ~mask
            self._set_count -= 1

    def _check(self, index: int) -> None:
        if not 0 <= index < self.nbits:
            raise IndexError(f"bit {index} out of range [0, {self.nbits})")

    # -- allocation ------------------------------------------------------------
    def find_free(self, start: int = 0) -> Optional[int]:
        """Return the index of the first clear bit at or after ``start``.

        Wraps around to the beginning (next-fit) so allocators can pass a
        goal block.  Returns ``None`` when the bitmap is full.
        """
        if self._set_count >= self.nbits:
            return None
        order = list(range(start, self.nbits)) + list(range(0, start))
        for index in order:
            if not self.get(index):
                return index
        return None

    def allocate(self, start: int = 0) -> Optional[int]:
        """Find a free bit, set it, and return its index (or ``None``)."""
        index = self.find_free(start)
        if index is not None:
            self.set(index)
        return index

    # -- accounting and serialisation -------------------------------------------
    @property
    def set_count(self) -> int:
        return self._set_count

    @property
    def free_count(self) -> int:
        return self.nbits - self._set_count

    def iter_set(self) -> Iterator[int]:
        for index in range(self.nbits):
            if self.get(index):
                yield index

    def to_bytes(self) -> bytes:
        return bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "Bitmap":
        bitmap = cls(nbits)
        expected = (nbits + 7) // 8
        if len(data) < expected:
            raise ValueError(f"need {expected} bytes for {nbits} bits, got {len(data)}")
        bitmap._bits = bytearray(data[:expected])
        # Mask off any tail bits past nbits so counts stay correct.
        tail = nbits & 7
        if tail:
            bitmap._bits[-1] &= (1 << tail) - 1
        # one C-level popcount (int.bit_count needs 3.10; this runs on 3.9)
        bitmap._set_count = bin(int.from_bytes(bitmap._bits, "little")).count("1")
        return bitmap

    def copy(self) -> "Bitmap":
        clone = Bitmap(self.nbits)
        clone._bits = bytearray(self._bits)
        clone._set_count = self._set_count
        return clone

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Bitmap)
            and self.nbits == other.nbits
            and self._bits == other._bits
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bitmap({self._set_count}/{self.nbits} set)"
