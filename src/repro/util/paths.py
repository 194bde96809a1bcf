"""Path handling for the simulated VFS.

All VFS paths are absolute, ``/``-separated, and contain no ``.``/``..``
components once normalised.  Component length limits mirror Linux
(NAME_MAX = 255, PATH_MAX = 4096); violations raise ``FsError`` with the
same errno the kernel would use.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.errors import EINVAL, ENAMETOOLONG, FsError

NAME_MAX = 255
PATH_MAX = 4096


@lru_cache(maxsize=8192)
def normalize_path(path: str) -> str:
    """Normalise ``path`` to a canonical absolute form.

    ``//a///b/`` becomes ``/a/b``; ``.`` components are dropped; ``..``
    components collapse toward the root (the root's parent is the root,
    matching POSIX).  Empty paths raise ``EINVAL`` like the kernel's
    path walker.
    """
    if not path:
        raise FsError(EINVAL, "empty path")
    if len(path) > PATH_MAX:
        raise FsError(ENAMETOOLONG, path[:32] + "...")
    if not path.startswith("/"):
        raise FsError(EINVAL, f"path must be absolute: {path!r}")
    # fast path: already canonical (no empty/dot components, no trailing
    # slash).  The length bound makes NAME_MAX violations impossible, so
    # the per-component check below can be skipped safely.
    if (len(path) <= NAME_MAX and path[-1] != "/"
            and "//" not in path and "/." not in path):
        return path
    parts: List[str] = []
    for component in path.split("/"):
        if component in ("", "."):
            continue
        if component == "..":
            if parts:
                parts.pop()
            continue
        if len(component) > NAME_MAX:
            raise FsError(ENAMETOOLONG, component[:32] + "...")
        parts.append(component)
    return "/" + "/".join(parts)


def split_path(path: str) -> Tuple[str, str]:
    """Split a normalised path into ``(parent, name)``.

    The root splits into ``("/", "")``.
    """
    path = normalize_path(path)
    if path == "/":
        return "/", ""
    parent, _, name = path.rpartition("/")
    return parent or "/", name
