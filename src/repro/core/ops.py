"""The bounded operation/parameter space (the Promela do..od analogue).

MCFS nondeterministically selects an operation and its parameters from a
predefined bounded pool (section 4).  Two kinds of entries:

* **plain operations** that can execute in isolation even when the file
  system is remounted around every step: ``truncate``, ``mkdir``,
  ``rmdir``, ``unlink``, ``rename``, ``symlink``, ``link``, ``setxattr``;
* **meta-operations** that bundle the syscalls which would otherwise
  depend on kernel state (open file descriptors do not survive an
  unmount): ``create_file`` = open(O_CREAT)+close, ``write_file`` =
  open+pwrite+close.

The pool deliberately produces *invalid* sequences too (writing to files
that do not exist, rmdir on files, ...): those exercise error paths,
where bugs often lurk, and must fail identically everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FsError
from repro.kernel.fdtable import O_CREAT, O_RDWR, O_WRONLY
from repro.core.abstraction import swap_names
from repro.core.integrity import Outcome

#: operations VeriFS1 does not implement; catalogs for VeriFS1 comparisons
#: exclude them (the paper compared VeriFS1 against Ext4 on the common set).
EXTENDED_OPERATIONS = frozenset({"rename", "symlink", "link", "setxattr"})

#: the arguments that are mount-relative paths, as a slice of ``args``
#: by operation name; every other argument is data.  A symlink stores its
#: target as an uninterpreted string -- it never dereferences or even
#: requires it to exist -- so only the link path is touched.  (Reporting
#: the target too wrongly serialised symlink against every operation on
#: the target, shrinking sleep-set reductions.)
_FIRST, _FIRST_TWO, _SECOND, _NONE = (slice(0, 1), slice(0, 2), slice(1, 2),
                                      slice(0, 0))
_PATH_ARGUMENTS: Dict[str, slice] = {
    "create_file": _FIRST, "write_file": _FIRST, "truncate": _FIRST,
    "mkdir": _FIRST, "rmdir": _FIRST, "unlink": _FIRST,
    "open_flags": _FIRST, "setxattr": _FIRST,
    "rename": _FIRST_TWO, "link": _FIRST_TWO, "symlink": _SECOND,
}


@dataclass(frozen=True)
class Operation:
    """One concrete operation: a name plus fully bound parameters."""

    name: str
    args: Tuple = ()

    def __hash__(self):
        # operations are immutable and hashed by every sleep-set and
        # successor-memo probe of the DFS; memoize the field-tuple hash
        cached = self.__dict__.get("_hash_memo")
        if cached is None:
            cached = hash((self.name, self.args))  # det-lint: allow[builtin-hash] in-process memo key only; excluded from pickles, never serialised or compared across processes
            object.__setattr__(self, "_hash_memo", cached)
        return cached

    def __getstate__(self):
        # the memoized hash mixes string hashes, which vary per process
        # under hash randomization: never ship it across pickles
        return {key: value for key, value in self.__dict__.items()
                if key != "_hash_memo"}

    def describe(self) -> str:
        rendered = ", ".join(repr(value) for value in self.args)
        return f"{self.name}({rendered})"


@dataclass(frozen=True)
class ParameterPool:
    """The bounded parameter space, mirroring the paper's predefined pool.

    Paths are relative to each file system's mount point.  Keeping the
    pool small is what keeps the state space bounded; keeping it *shared*
    across operations is what makes invalid sequences (e.g. unlink of a
    never-created file) arise naturally.
    """

    file_paths: Tuple[str, ...] = ("/f0", "/f1", "/d0/f2")
    dir_paths: Tuple[str, ...] = ("/d0", "/d1", "/d0/sd0")
    write_offsets: Tuple[int, ...] = (0, 1000)
    write_sizes: Tuple[int, ...] = (512, 3000)
    truncate_sizes: Tuple[int, ...] = (0, 100, 2048)
    fill_bytes: Tuple[int, ...] = (0x41,)
    symlink_targets: Tuple[str, ...] = ("/f0",)
    xattr_pairs: Tuple[Tuple[str, bytes], ...] = (("user.mcfs", b"x"),)
    #: extra (source, dest) rename pairs beyond the pairwise first-two
    #: enumeration -- boundary profiles add rename cycles here
    rename_extra: Tuple[Tuple[str, str], ...] = ()
    #: raw open(2) flag combinations; each becomes an ``open_flags``
    #: open+close meta-op exercising flag-dependent error paths
    open_flag_sets: Tuple[int, ...] = ()

    def tiny(self) -> "ParameterPool":
        """A minimal pool for exhaustive-DFS unit tests."""
        return ParameterPool(
            file_paths=("/f0",),
            dir_paths=("/d0",),
            write_offsets=(0,),
            write_sizes=(64,),
            truncate_sizes=(0, 100),
            fill_bytes=(0x41,),
            symlink_targets=("/f0",),
            xattr_pairs=(("user.mcfs", b"x"),),
        )


#: two revolutions of the 0..255 ramp, so any rotation is one slice
_PATTERN_WHEEL = bytes(index & 0xFF for index in range(512))


def fill_pattern(fill: int, size: int, offset: int) -> bytes:
    """Deterministic, position-dependent data so content bugs are visible.

    A constant fill would mask bugs like stale-data exposure whenever the
    stale bytes happen to match; weaving the offset into the pattern makes
    every write distinguishable.  The pattern is the cyclic ramp
    ``(fill + offset + index) & 0xFF``, materialised by rotating a
    precomputed wheel instead of generating one byte at a time.
    """
    if size <= 0:
        return b""
    base = (fill + offset) & 0xFF
    ring = _PATTERN_WHEEL[base:base + 256]
    return (ring * (size // 256 + 1))[:size]


def _nested(first: str, second: str) -> bool:
    """Whether one of the two paths is the other or lies below it."""
    return (first == second or first.startswith(second + "/")
            or second.startswith(first + "/"))


def _swapped(operation: Operation,
             pairs: Sequence[Tuple[str, str]]) -> Optional[Operation]:
    """``operation`` with its path arguments renamed by ``pairs``, or None
    when a data argument names a swapped path."""
    args = list(operation.args)
    positions = range(len(args))[_PATH_ARGUMENTS.get(operation.name, _NONE)]
    moved = False
    for index, value in enumerate(args):
        if not isinstance(value, str):
            continue
        renamed = swap_names(value, pairs)
        if renamed == value:
            continue
        if index not in positions:
            return None
        args[index], moved = renamed, True
    return Operation(operation.name, tuple(args)) if moved else operation


class OperationCatalog:
    """Enumerates the operation space and executes operations on a FUT."""

    def __init__(
        self,
        pool: ParameterPool = ParameterPool(),
        include_extended: bool = True,
    ):
        self.pool = pool
        self.include_extended = include_extended
        self._operations = self._build()

    def operations(self) -> List[Operation]:
        """Every (operation, parameters) combination, in a stable order."""
        return list(self._operations)

    def __len__(self) -> int:
        return len(self._operations)

    def _build(self) -> List[Operation]:
        pool = self.pool
        ops: List[Operation] = []
        for path in pool.file_paths:
            ops.append(Operation("create_file", (path, 0o644)))
        for path in pool.file_paths:
            for offset in pool.write_offsets:
                for size in pool.write_sizes:
                    for fill in pool.fill_bytes:
                        ops.append(Operation("write_file", (path, offset, size, fill)))
        for path in pool.file_paths:
            for size in pool.truncate_sizes:
                ops.append(Operation("truncate", (path, size)))
        for path in pool.dir_paths:
            ops.append(Operation("mkdir", (path, 0o755)))
        for path in pool.dir_paths:
            ops.append(Operation("rmdir", (path,)))
        for path in pool.file_paths:
            ops.append(Operation("unlink", (path,)))
        for flags in pool.open_flag_sets:
            for path in pool.file_paths[:2] + pool.dir_paths[:1]:
                ops.append(Operation("open_flags", (path, flags)))
        if self.include_extended:
            for source in pool.file_paths[:2]:
                for dest in pool.file_paths[:2]:
                    if source != dest:
                        ops.append(Operation("rename", (source, dest)))
            for source, dest in pool.rename_extra:
                candidate = Operation("rename", (source, dest))
                if source != dest and candidate not in ops:
                    ops.append(candidate)
            for target in pool.symlink_targets:
                ops.append(Operation("symlink", (target, "/sym0")))
            for source in pool.file_paths[:1]:
                ops.append(Operation("link", (source, "/hard0")))
            for key, value in pool.xattr_pairs:
                for path in pool.file_paths[:1]:
                    ops.append(Operation("setxattr", (path, key, value)))
        return ops

    # --------------------------------------------------- independence (POR) --
    @staticmethod
    def paths_touched(operation: Operation) -> Tuple[str, ...]:
        """Mount-relative paths an operation reads or mutates."""
        return operation.args[_PATH_ARGUMENTS.get(operation.name, _NONE)]

    @classmethod
    def independent(cls, first: Operation, second: Operation) -> bool:
        """True when the two operations commute.

        Conservative rule: operations commute when their touched paths
        are disjoint and neither path is an ancestor of the other's
        (``mkdir /d0`` does not commute with ``create /d0/f2``).  Shared
        free space could couple any two writes near a full device; MCFS
        pools keep devices far from full, so the rule is sound there.
        """
        first_paths = cls.paths_touched(first)
        second_paths = cls.paths_touched(second)
        if not first_paths or not second_paths:
            return False
        for a in first_paths:
            for b in second_paths:
                if _nested(a, b):
                    return False
        return True

    # ------------------------------------------------ name symmetry (POR) --
    def name_symmetries(self) -> Tuple[Tuple[str, str], ...]:
        """Pairs of sibling pool paths whose swap, subtrees included, maps
        the action set onto itself, so that (file systems not caring which
        sibling name they are given) a state and its mirror image have
        mirrored futures.

        An operation that carries a swapped name as data (a symlink
        target) breaks the pair: the state would keep the name while the
        tree moves.  The pairs are disjoint and none lies below another,
        so any subset of them swaps as one renaming.
        """
        pool = self.pool
        names = list(dict.fromkeys(pool.file_paths + pool.dir_paths))
        actions = set(self._operations)
        pairs: List[Tuple[str, str]] = []
        for index, first in enumerate(names):
            for second in names[index + 1:]:
                if (first.rsplit("/", 1)[0] != second.rsplit("/", 1)[0]
                        or any(_nested(name, taken)
                               for name in (first, second)
                               for pair in pairs for taken in pair)):
                    continue
                pair = ((first, second),)
                if all(_swapped(operation, pair) in actions
                       for operation in self._operations):
                    pairs.append((first, second))
        return tuple(pairs)

    # ------------------------------------------------------------ execution --
    def execute(self, fut, operation: Operation) -> Outcome:
        """Run one operation against a FUT through its kernel.

        POSIX failures become error Outcomes (they are *expected* -- the
        pool generates invalid sequences on purpose); anything else
        propagates, because it means the checker or fs crashed.
        """
        handler = getattr(self, f"_op_{operation.name}", None)
        if handler is None:
            raise ValueError(f"unknown operation {operation.name!r}")
        try:
            value = handler(fut, *operation.args)
            return Outcome.success(value)
        except FsError as error:
            return Outcome.failure(error.code)

    # Meta-operations: bundles that avoid depending on open-fd kernel state.
    def _op_create_file(self, fut, path: str, mode: int):
        fd = fut.kernel.open(fut.mountpoint + path, O_CREAT | O_WRONLY, mode)
        fut.kernel.close(fd)
        return 0

    def _op_write_file(self, fut, path: str, offset: int, size: int, fill: int):
        # "write_file opens, writes some data to, and closes a file" (§4);
        # O_CREAT keeps it usable as the first operation on a path.
        fd = fut.kernel.open(fut.mountpoint + path, O_CREAT | O_WRONLY)
        try:
            return fut.kernel.pwrite(fd, fill_pattern(fill, size, offset), offset)
        finally:
            fut.kernel.close(fd)

    def _op_open_flags(self, fut, path: str, flags: int):
        # open+close with an arbitrary flag combination: O_EXCL EEXIST,
        # O_TRUNC-on-open, O_DIRECTORY ENOTDIR, append-mode opens.  The
        # bundle closes immediately so no fd outlives a remount.
        fd = fut.kernel.open(fut.mountpoint + path, flags, 0o644)
        fut.kernel.close(fd)
        return 0

    # Plain operations.
    def _op_truncate(self, fut, path: str, size: int):
        fut.kernel.truncate(fut.mountpoint + path, size)
        return 0

    def _op_mkdir(self, fut, path: str, mode: int):
        fut.kernel.mkdir(fut.mountpoint + path, mode)
        return 0

    def _op_rmdir(self, fut, path: str):
        fut.kernel.rmdir(fut.mountpoint + path)
        return 0

    def _op_unlink(self, fut, path: str):
        fut.kernel.unlink(fut.mountpoint + path)
        return 0

    def _op_rename(self, fut, source: str, dest: str):
        fut.kernel.rename(fut.mountpoint + source, fut.mountpoint + dest)
        return 0

    def _op_symlink(self, fut, target: str, link_path: str):
        fut.kernel.symlink(target, fut.mountpoint + link_path)
        return 0

    def _op_link(self, fut, source: str, link_path: str):
        fut.kernel.link(fut.mountpoint + source, fut.mountpoint + link_path)
        return 0

    def _op_setxattr(self, fut, path: str, key: str, value: bytes):
        fut.kernel.setxattr(fut.mountpoint + path, key, value)
        return 0
