"""Shared low-level utilities: bitmaps, paths, hashing, bounded pools."""

from repro.util.bitmap import Bitmap
from repro.util.paths import normalize_path, split_path
from repro.util.hashing import md5_hex, stable_hash64

__all__ = [
    "Bitmap",
    "normalize_path",
    "split_path",
    "md5_hex",
    "stable_hash64",
]
