"""Raw-image access helpers for the offline checkers.

Checkers consume a device image as plain ``bytes`` -- the same view the
model checker gets from :meth:`BlockDevice.snapshot_image` (the paper
mmaps the backing store; we copy it).  Reading bytes instead of going
through a live device keeps the checkers side-effect free: no clock
charges, no cache interference, no chance of perturbing the run under
audit.
"""

from __future__ import annotations


class BlockImage:
    """Block-granular reads over a raw image (zero-padded at the tail).

    Mirrors :class:`repro.fs.base.BufferCache`'s read interface closely
    enough that the checkers can parse the on-disk layout exactly the
    way the mounted drivers do (``MountedExt2._read_bitmaps`` et al.).
    """

    def __init__(self, image: bytes, block_size: int):
        if block_size <= 0:
            raise ValueError(f"bad block size {block_size}")
        self.image = image
        self.block_size = block_size
        self.block_count = len(image) // block_size

    def block(self, index: int) -> bytes:
        """Read one block; out-of-range or truncated reads return zeros
        for the missing bytes (the checker reports truncation itself
        rather than crashing on it)."""
        if index < 0:
            return b"\x00" * self.block_size
        start = index * self.block_size
        raw = self.image[start : start + self.block_size]
        if len(raw) < self.block_size:
            raw = raw + b"\x00" * (self.block_size - len(raw))
        return raw
