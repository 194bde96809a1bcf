"""Abstraction functions: Algorithm 1 plus the section 3.4 workarounds.

The abstraction function converts a file system's concrete state into a
128-bit MD5 hash that captures exactly the *logically important* content:

1. recursively walk the mount point collecting every file and directory;
2. sort the paths (file systems return directory entries in different
   orders -- the getdents workaround);
3. for each entry, hash its pathname, its content (file data or symlink
   target), and the important metadata: **mode, size, nlink, UID, GID**
   -- deliberately omitting noisy attributes such as atime and block
   placement, which differ without indicating bugs.

Workarounds folded in (all section 3.4):

* **directory sizes are ignored** by default (ext reports block-multiple
  sizes, XFS reports entry-record sums, JFFS2 reports 0);
* an **exception list** of special paths (``lost+found``, the free-space
  equalization dummy file) is skipped entirely;
* entry ordering is normalised by the sort in step 2.

None of these introduce false negatives because they only cover
behaviour POSIX leaves unspecified.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.errors import ENOENT, ENOSYS, ENOTDIR, ENOTSUP, FsError
from repro.kernel.stat import S_IFMT

#: special paths ignored by default: ext's lost+found and the dummy file
#: created by free-space equalization.
DEFAULT_EXCEPTIONS = frozenset({"lost+found", ".mcfs_equalize"})


@dataclass(frozen=True)
class AbstractionOptions:
    """Knobs for the abstraction function (each is a §3.4 workaround)."""

    ignore_dir_sizes: bool = True
    sort_entries: bool = True
    exception_list: FrozenSet[str] = DEFAULT_EXCEPTIONS
    include_owner: bool = True
    #: include symlink targets in the content hash
    include_symlink_targets: bool = True
    #: include extended attributes in the state (fs without xattr support
    #: contribute an empty set, so mixed comparisons stay sound)
    include_xattrs: bool = True
    #: hash timestamps too -- the section 3.3 anti-pattern.  This models
    #: raw ``c_track`` buffer tracking, where "any change in a buffer is
    #: considered a new state": atime updates alone make almost every
    #: state unique and the search explodes.
    track_timestamps: bool = False

    def without_workarounds(self) -> "AbstractionOptions":
        """The naive abstraction (used by the false-positive ablation)."""
        return replace(
            self,
            ignore_dir_sizes=False,
            sort_entries=False,
            exception_list=frozenset(),
        )


class EntryRecord(NamedTuple):
    """One walked entry: everything the abstraction hashes, plus the
    relative path -- also used by integrity checks to produce readable
    diffs between file systems.

    An immutable tuple: one is built per re-walked entry per state, and a
    tuple is built in one allocation where a frozen dataclass pays an
    ``object.__setattr__`` per field."""

    path: str  # relative to the mount point, e.g. "/d0/f1"
    mode: int
    size: int
    nlink: int
    uid: int
    gid: int
    content_md5: str
    xattr_md5: str = ""
    atime: float = 0.0
    mtime: float = 0.0

    def important_attributes(self, options: AbstractionOptions) -> Tuple:
        attrs: List = [self.mode & S_IFMT, self.mode & 0o7777, self.nlink]
        is_dir = (self.mode & S_IFMT) == 0o040000
        if not (is_dir and options.ignore_dir_sizes):
            attrs.append(self.size)
        if options.include_owner:
            attrs.extend([self.uid, self.gid])
        if options.track_timestamps:
            attrs.extend([self.atime, self.mtime])
        return tuple(attrs)


def encode_entry(record: EntryRecord, options: AbstractionOptions) -> bytes:
    """The exact bytes :func:`hash_entries` feeds MD5 for one record.

    The content digest, the xattr digest, then every important attribute
    and the path, each NUL-terminated.  The incremental cache keeps these
    bytes in its digest lane, so a record is encoded once while it stays
    cached.
    """
    # one encode: every piece before the path is ASCII (hex digests,
    # decimal attributes), so encoding the concatenation is
    # byte-identical to encoding piecewise
    return (
        record.content_md5
        + (record.xattr_md5 if options.include_xattrs else "")
        + "\x00".join(map(str, record.important_attributes(options)))
        + "\x00" + record.path + "\x00"
    ).encode("utf-8")


#: sort key of walked records
_record_path = attrgetter("path")


def _build_record(
    kernel, mountpoint: str, rel_path: str, attrs, options: AbstractionOptions
) -> EntryRecord:
    """Build one :class:`EntryRecord` from already-fetched lstat data.

    Shared between the full walk, the subtree re-walk, and the record
    refresh so every path produces byte-identical records.
    """
    abs_path = mountpoint + rel_path
    if attrs.is_symlink:
        target = kernel.readlink(abs_path)
        content = (
            hashlib.md5(target.encode("utf-8")).hexdigest()
            if options.include_symlink_targets
            else ""
        )
    elif attrs.is_dir:
        content = ""
    else:
        content = _hash_file_content(kernel, abs_path, attrs.st_size)
    xattr_digest = ""
    if options.include_xattrs and not attrs.is_symlink:
        xattr_digest = _hash_xattrs(kernel, mountpoint, abs_path)
    return EntryRecord(
        path=rel_path,
        mode=attrs.st_mode,
        size=attrs.st_size,
        nlink=attrs.st_nlink,
        uid=attrs.st_uid,
        gid=attrs.st_gid,
        content_md5=content,
        xattr_md5=xattr_digest,
        atime=attrs.st_atime,
        mtime=attrs.st_mtime,
    )


def collect_entries(
    kernel,
    mountpoint: str,
    options: AbstractionOptions = AbstractionOptions(),
) -> List[EntryRecord]:
    """Walk the mount point and return the entry records, sorted by path.

    Reads go through the kernel's real syscall surface (open/read/stat),
    so the walk pays the same costs MCFS pays when it hashes states --
    and sees exactly the state an application would see, including any
    corruption.
    """
    records: List[EntryRecord] = []
    # iterative DFS over directories; entries are relative paths.  The
    # readdirplus surface returns each entry with its lstat data in one
    # syscall, so the walk costs one round trip per *directory* instead
    # of one per entry.
    stack: List[str] = ["/"]
    while stack:
        rel_dir = stack.pop()
        abs_dir = mountpoint if rel_dir == "/" else mountpoint + rel_dir
        for dirent, attrs in kernel.getdents_attrs(abs_dir):
            if dirent.name in options.exception_list:
                continue
            rel_path = (rel_dir if rel_dir != "/" else "") + "/" + dirent.name
            if attrs.is_dir:
                stack.append(rel_path)
            records.append(
                _build_record(kernel, mountpoint, rel_path, attrs, options)
            )
    if options.sort_entries:
        records.sort(key=_record_path)
    return records


def collect_subtree(
    kernel, mountpoint: str, rel_root: str, options: AbstractionOptions
) -> List[EntryRecord]:
    """Collect records for ``rel_root`` and everything below it.

    Returns an empty list if the path no longer exists (or an ancestor
    stopped being a directory) -- the incremental walker treats that as
    "the subtree is gone".
    """
    try:
        attrs = kernel.lstat(mountpoint + rel_root)
    except FsError as error:
        if error.code in (ENOENT, ENOTDIR):
            return []
        raise
    records = [_build_record(kernel, mountpoint, rel_root, attrs, options)]
    if not attrs.is_dir:
        return records
    stack: List[str] = [rel_root]
    while stack:
        rel_dir = stack.pop()
        for dirent, child_attrs in kernel.getdents_attrs(mountpoint + rel_dir):
            if dirent.name in options.exception_list:
                continue
            rel_path = rel_dir + "/" + dirent.name
            if child_attrs.is_dir:
                stack.append(rel_path)
            records.append(
                _build_record(kernel, mountpoint, rel_path, child_attrs, options)
            )
    return records


def _hash_xattrs(kernel, mountpoint: str, path: str) -> str:
    """Digest of an entry's xattrs; empty when there are none or the fs
    has no xattr support (ENOTSUP/ENOSYS are feature absences, not bugs
    in themselves -- a capability mismatch already shows up as an outcome
    discrepancy on the setxattr operation itself).  The first feature
    absence is remembered on the mount, so later record builds skip the
    listxattr call instead of re-learning the same errno per entry."""
    try:
        mount = kernel.mount_at(mountpoint)
    except FsError:
        mount = None  # walk rooted below the mountpoint: no memo, still correct
    if mount is not None and mount.xattrs_unsupported:
        return ""
    try:
        keys = kernel.listxattr(path)
    except FsError as error:
        if error.code in (ENOTSUP, ENOSYS):
            if mount is not None:
                mount.xattrs_unsupported = True
            return ""
        raise
    if not keys:
        return ""
    ctx = hashlib.md5()
    for key in sorted(keys):
        ctx.update(key.encode("utf-8"))
        ctx.update(b"\x00")
        ctx.update(kernel.getxattr(path, key))
        ctx.update(b"\x01")
    return ctx.hexdigest()


_EMPTY_MD5 = hashlib.md5().hexdigest()


def _hash_file_content(kernel, path: str, size: int) -> str:
    """MD5 of a file's full content, read through the syscall surface."""
    if size == 0:
        # lstat already vouched for the size; an open would read nothing
        return _EMPTY_MD5
    ctx = hashlib.md5()
    fd = kernel.open(path)
    try:
        offset = 0
        chunk_size = 64 * 1024
        while offset < size:
            data = kernel.pread(fd, min(chunk_size, size - offset), offset)
            if not data:
                break
            ctx.update(data)
            offset += len(data)
    finally:
        kernel.close(fd)
    return ctx.hexdigest()


def hash_entries(records, options: AbstractionOptions) -> str:
    """Hash already-collected entry records (steps 6-15 of Algorithm 1).

    Split out from :func:`abstract_state` so one walk can feed several
    abstraction variants (e.g. the state-matching hash and the integrity
    comparison hash in the section 3.3 ablation).
    """
    ctx = hashlib.md5()
    for record in records:
        ctx.update(encode_entry(record, options))
    return ctx.hexdigest()


def swap_names(path: str, pairs) -> str:
    """``path`` with the two names of each ``(first, second)`` pair
    swapped, subtrees included; the pairs must not nest."""
    for first, second in pairs:
        for source, dest in ((first, second), (second, first)):
            if path == source or path.startswith(source + "/"):
                return dest + path[len(source):]
    return path


def rename_entries(records, pairs) -> Optional[List[EntryRecord]]:
    """``records`` under :func:`swap_names`, sorted by path again, or None
    when no record moves."""
    renamed: List[EntryRecord] = []
    moved = False
    for record in records:
        path = swap_names(record.path, pairs)
        if path != record.path:
            record = record._replace(path=path)
            moved = True
        renamed.append(record)
    if not moved:
        return None
    renamed.sort(key=_record_path)
    return renamed


def abstract_state(
    kernel,
    mountpoint: str,
    options: AbstractionOptions = AbstractionOptions(),
) -> str:
    """Algorithm 1: the 128-bit abstract-state hash of one file system."""
    return hash_entries(collect_entries(kernel, mountpoint, options), options)


# --------------------------------------------------------------------------
# Incremental abstraction: a per-path record cache driven by the mount's
# dirty-path tracking, so repeated walks re-hash only what changed.
# --------------------------------------------------------------------------

def cacheable_options(options: AbstractionOptions) -> bool:
    """Whether the incremental cache can reproduce a full walk bit-for-bit.

    * ``sort_entries=False`` emits records in raw DFS discovery order,
      which a merge of cached and fresh records cannot reproduce.
    * ``track_timestamps=True`` hashes atime/mtime; full walks have read
      side effects (atime) and cached records hold stale times, so the
      §3.3 ablation must keep using full walks.
    """
    return options.sort_entries and not options.track_timestamps


#: records per MD5 prefix checkpoint in a digest lane.  Hashing resumes
#: from the last checkpoint before the first dirty sorted position, so a
#: change near the end of the tree re-hashes one block, not the tree.
HASH_BLOCK = 64

#: ``"0"`` is the successor of ``"/"`` in byte order and no byte sorts
#: between them, so ``[path + "/", path + "0")`` is exactly the key range
#: of ``path``'s descendants in a sorted key array.
_AFTER_SLASH = "0"


class _Lane:
    """The cache's digest pipeline over a record store.

    ``enc`` holds each record's hash-input bytes (:func:`encode_entry`)
    parallel to the store's sorted key array.  ``ctxs[j]`` is a *copy* of
    the MD5 context after feeding blocks ``0..j`` -- the Merkle-style
    prefix checkpoints that make re-hashing O(suffix-from-first-change)
    instead of O(tree).  ``digest`` memoizes the finished hexdigest.
    """

    __slots__ = ("enc", "ctxs", "digest")

    def __init__(self, enc: List[bytes], ctxs: List, digest: Optional[str]):
        self.enc = enc
        self.ctxs = ctxs
        self.digest = digest

    def clone(self) -> "_Lane":
        # MD5 contexts are never mutated once stored (only .copy()ed), so
        # a shallow list copy shares them safely
        return _Lane(list(self.enc), list(self.ctxs), self.digest)


class _MerkleStore:
    """One copy-on-write generation of the entry cache.

    Content (``keys``/``records``/lane encodings) is never mutated while
    ``shared`` -- :meth:`EntryCache._writable` clones first, so every
    :class:`AbstractionToken` holding this store stays a faithful O(1)
    checkpoint.  Derived memos (``view``, the lane's contexts and
    digest) *are* filled in place even when shared: they are pure
    functions of the immutable content, so every holder sees the same
    values either way.
    """

    __slots__ = ("keys", "records", "lane", "view", "shared")

    def __init__(self, keys: List[str], records: Dict[str, EntryRecord],
                 lane: _Lane):
        self.keys = keys
        self.records = records
        self.lane = lane
        self.view: Optional[Tuple[EntryRecord, ...]] = None
        self.shared = False

    def clone(self) -> "_MerkleStore":
        store = _MerkleStore(list(self.keys), dict(self.records),
                             self.lane.clone())
        store.view = self.view
        return store

    def descendants(self, path: str) -> Tuple[int, int]:
        """Key-array range ``[lo, hi)`` of ``path``'s strict descendants."""
        prefix = path + "/"
        lo = bisect_left(self.keys, prefix)
        hi = bisect_left(self.keys, path + _AFTER_SLASH, lo)
        return lo, hi


class AbstractionToken(NamedTuple):
    """Checkpoint of an :class:`EntryCache` plus the mount's dirty state.

    Captured alongside a checkpoint strategy's token and reinstated on
    restore, so an exact rollback also rolls the incremental cache back
    instead of degrading to a full re-walk.  The token shares the cache's
    copy-on-write :class:`_MerkleStore` (including the sorted key array
    and the digest lane), so capture and restore are O(1) and a stack
    of checkpoints shares structure.
    """

    options: AbstractionOptions
    store: Optional[_MerkleStore]
    generation: Optional[int]
    fully_dirty: bool
    dirty_paths: FrozenSet[str]
    dirty_records: FrozenSet[str]
    dirty_parents: FrozenSet[str]
    multilink_inos: FrozenSet[int]
    change_generation: int


def _excepted(path: str, marks: Tuple[str, ...]) -> bool:
    """Whether a component of ``path`` is on the exception list, given
    the list as ``"/name/"`` marks: ``"/name/"`` occurs in ``path + "/"``
    exactly when ``name`` is one of its components."""
    probe = path + "/"
    for mark in marks:
        if mark in probe:
            return True
    return False


def _covered(path: str, roots: List[str]) -> bool:
    """Whether ``path`` is one of ``roots`` or lies below one."""
    for root in roots:
        if path == root or path.startswith(root + "/"):
            return True
    return False


class EntryCache:
    """Per-path :class:`EntryRecord` cache combined Merkle-style.

    The cache holds the records of the last walk in a copy-on-write
    :class:`_MerkleStore`: a bisect-maintained sorted key array, the
    record map, and one digest lane for the cache's own options with MD5
    prefix checkpoints.  On refresh it consumes the mount's dirty sets at three
    granularities -- entry-dirty subtree re-walks, parent-dirty
    membership reconciles, record-dirty re-stats -- as O(log n + k)
    range splices on the sorted array, and produces the same sorted
    record sequence a full :func:`collect_entries` walk would, feeding
    the same per-record bytes to MD5, so every digest is bit-identical
    to ``hash_entries(collect_entries(...))``.

    ``counters`` is observability for tests and benchmarks: it tallies
    the work classes (full walks, COW clones, encoded records, hashed
    blocks, digest memo hits) so "restore does no per-record work" and
    "cost tracks the dirty set" are assertable, not vibes.
    """

    def __init__(self, options: AbstractionOptions):
        self.options = options
        #: the exception list as ``_excepted``'s ``"/name/"`` marks
        self._exception_marks = tuple(
            f"/{name}/" for name in sorted(options.exception_list) if name)
        self._merkle: Optional[_MerkleStore] = None
        self.generation: Optional[int] = None
        self.counters: Dict[str, int] = {
            "full_walks": 0,
            "cow_clones": 0,
            "records_encoded": 0,
            "blocks_hashed": 0,
            "digest_hits": 0,
            "restores": 0,
        }

    # -- copy-on-write store plumbing ---------------------------------------
    def _writable(self) -> _MerkleStore:
        """The current store, cloned first if a checkpoint shares it."""
        store = self._merkle
        if store.shared:
            store = store.clone()
            self._merkle = store
            self.counters["cow_clones"] += 1
        return store

    def _invalidate_from(self, store: _MerkleStore, index: int) -> None:
        """Drop derived state at and after sorted position ``index``."""
        store.view = None
        lane = store.lane
        del lane.ctxs[index // HASH_BLOCK:]
        lane.digest = None

    def _upsert(self, store: _MerkleStore, record: EntryRecord) -> None:
        """Insert or replace one record, keeping keys and the lane
        aligned."""
        keys = store.keys
        path = record.path
        index = bisect_left(keys, path)
        encoded = encode_entry(record, self.options)
        if index < len(keys) and keys[index] == path:
            store.lane.enc[index] = encoded
        else:
            keys.insert(index, path)
            store.lane.enc.insert(index, encoded)
        store.records[path] = record
        self.counters["records_encoded"] += 1
        self._invalidate_from(store, index)

    def _evict(self, store: _MerkleStore, path: str,
               with_root: bool = True) -> None:
        """Drop ``path``'s subtree (``with_root=False``: only what is
        below it): range splices."""
        keys = store.keys
        lo, hi = store.descendants(path)
        exact = bisect_left(keys, path, 0, lo)
        has_exact = with_root and exact < len(keys) and keys[exact] == path
        if not has_exact and lo == hi:
            return
        if hi > lo:
            for key in keys[lo:hi]:
                del store.records[key]
            del keys[lo:hi]
            del store.lane.enc[lo:hi]
        if has_exact:
            # keys like "path!" sort between ``path`` and ``path + "/"``,
            # so the exact entry is spliced separately from its children;
            # its index is below the range just deleted, hence unmoved
            del store.records[path]
            del keys[exact]
            del store.lane.enc[exact]
        self._invalidate_from(store, exact if has_exact else lo)

    def _adopt_subtree(self, store: _MerkleStore, kernel, mountpoint: str,
                       path: str, rewalked: List[str]) -> None:
        """Replace ``path``'s subtree with a fresh collection, and note
        ``path`` in ``rewalked``."""
        rewalked.append(path)
        collected = collect_subtree(kernel, mountpoint, path, self.options)
        if not collected:
            self._evict(store, path)  # the subtree is gone
            return
        # the root record is replaced in place (or inserted), its old
        # descendants are dropped and the fresh ones spliced in
        self._evict(store, path, with_root=False)
        self._upsert(store, collected[0])
        if len(collected) > 1:
            children = sorted(collected[1:], key=_record_path)
            # the evict emptied the descendant range, so the sorted batch
            # splices in as one contiguous run at the range's lower bound
            lo = bisect_left(store.keys, path + "/")
            store.keys[lo:lo] = [record.path for record in children]
            for record in children:
                store.records[record.path] = record
            store.lane.enc[lo:lo] = [encode_entry(record, self.options)
                                     for record in children]
            self.counters["records_encoded"] += len(children)
            self._invalidate_from(store, lo)

    # -- the walk -----------------------------------------------------------
    def _sync(self, kernel, mountpoint: str, mount,
              profile=None) -> _MerkleStore:
        """Bring the store up to date, re-walking only dirty regions."""
        store = self._merkle
        if (store is not None and not mount.fully_dirty
                and self.generation == mount.change_generation):
            return store  # nothing changed: zero syscalls
        if store is None or mount.fully_dirty:
            if profile is None:
                self._rebuild(kernel, mountpoint)
            else:
                profile.timed("abstraction_syscall", self._rebuild,
                              kernel, mountpoint)
            # the full walk answers every pending mark
            mount.fully_dirty = False
            mount.dirty_paths.clear()
            mount.dirty_records.clear()
            mount.dirty_parents.clear()
        elif profile is None:
            self._apply_dirty(kernel, mountpoint, mount)
        else:
            profile.timed("abstraction_syscall", self._apply_dirty,
                          kernel, mountpoint, mount)
        self.generation = mount.change_generation
        return self._merkle

    def _rebuild(self, kernel, mountpoint: str) -> None:
        options = self.options
        records = collect_entries(kernel, mountpoint, options)
        store = _MerkleStore(
            [record.path for record in records],  # already path-sorted
            {record.path: record for record in records},
            _Lane([encode_entry(record, options) for record in records],
                  [], None),
        )
        self.counters["records_encoded"] += len(records)
        store.view = tuple(records)
        self._merkle = store
        self.counters["full_walks"] += 1

    def refresh(self, kernel, mountpoint: str, mount,
                profile=None) -> Tuple[EntryRecord, ...]:
        """Up-to-date records sorted by path, as an immutable tuple.

        The tuple is memoized on the store and safe to hold across later
        refreshes: mutations clone or rebuild, they never edit a
        previously returned view.
        """
        store = self._sync(kernel, mountpoint, mount, profile)
        view = store.view
        if view is None:
            view = tuple(store.records[key] for key in store.keys)
            store.view = view  # derived memo: safe on shared stores
        return view

    def digest(self, kernel, mountpoint: str, mount, profile=None) -> str:
        """Hexdigest of the cache's options over one synced walk.

        The hot path: never materializes the record view, resumes the
        lane's MD5 from its last prefix checkpoint before the first
        change, and serves repeat hashes of an unchanged tree from the
        digest memo.
        """
        store = self._sync(kernel, mountpoint, mount, profile)
        if profile is not None:
            return profile.timed("abstraction_hash", self._digest, store)
        return self._digest(store)

    def _digest(self, store: _MerkleStore) -> str:
        lane = store.lane
        digest = lane.digest
        if digest is None:
            digest = lane.digest = self._hash_lane(lane)
        else:
            self.counters["digest_hits"] += 1
        return digest

    def _hash_lane(self, lane: _Lane) -> str:
        """Resume the lane's MD5 from its last prefix checkpoint."""
        enc = lane.enc
        ctxs = lane.ctxs
        blocks = len(enc) // HASH_BLOCK
        start = min(len(ctxs), blocks)
        ctx = ctxs[start - 1].copy() if start else hashlib.md5()
        for block in range(start, blocks):
            lo = block * HASH_BLOCK
            ctx.update(b"".join(enc[lo:lo + HASH_BLOCK]))
            # checkpoints are filled in place even on shared stores: they
            # are pure functions of the content, stored as private copies
            ctxs.append(ctx.copy())
            self.counters["blocks_hashed"] += 1
        tail = enc[blocks * HASH_BLOCK:] if blocks else enc
        if tail:
            ctx.update(b"".join(tail))
            self.counters["blocks_hashed"] += 1
        return ctx.hexdigest()

    def _apply_dirty(self, kernel, mountpoint: str, mount) -> None:
        """Consume the mount's dirty sets into a writable store."""
        store = self._writable()
        options = self.options
        marks = self._exception_marks
        rewalked: List[str] = []  # subtree roots re-collected this refresh

        dirty_paths, dirty_parents, dirty_records = (
            mount.dirty_paths, mount.dirty_parents, mount.dirty_records)

        # 1. entry-dirty: content (and possibly the whole subtree) changed.
        #    Ancestors sort first, so _covered() suppresses nested re-walks.
        for path in sorted(dirty_paths):
            if _excepted(path, marks) or _covered(path, rewalked):
                continue
            self._adopt_subtree(store, kernel, mountpoint, path, rewalked)

        # 2. parent-dirty: directory membership changed; reconcile the
        #    entry list and refresh the directory's own record, keeping
        #    every untouched child subtree cached.
        for rel_dir in sorted(dirty_parents):
            if _excepted(rel_dir, marks) or _covered(rel_dir, rewalked):
                continue
            abs_dir = mountpoint if rel_dir == "/" else mountpoint + rel_dir
            try:
                attrs = kernel.lstat(abs_dir)
            except FsError as error:
                if error.code in (ENOENT, ENOTDIR):
                    self._evict(store, rel_dir)  # the directory is gone
                    continue
                raise
            if not attrs.is_dir or (rel_dir != "/"
                                    and rel_dir not in store.records):
                # replaced by a non-directory, or never cached: collect
                # it whole
                self._adopt_subtree(store, kernel, mountpoint, rel_dir,
                                    rewalked)
                continue
            prefix = "" if rel_dir == "/" else rel_dir
            live_names = {
                dirent.name
                for dirent in kernel.getdents(abs_dir)
                if dirent.name not in options.exception_list
            }
            # depth-1 children are a contiguous key range: scan it rather
            # than the whole map, keeping only immediate names
            lo, hi = store.descendants(prefix) if prefix else (
                0, len(store.keys))
            cached_names = {
                key[len(prefix) + 1:]
                for key in store.keys[lo:hi]
                if "/" not in key[len(prefix) + 1:]
            }
            for name in sorted(live_names - cached_names):
                self._adopt_subtree(store, kernel, mountpoint,
                                    prefix + "/" + name, rewalked)
            for name in sorted(cached_names - live_names):
                self._evict(store, prefix + "/" + name)
            if rel_dir != "/":
                # membership changes alter the dir's own nlink/size/times
                # but never its content or xattrs.  Direct construction,
                # not dataclasses.replace: this runs per dirty parent per
                # state and replace() re-derives the field list each call
                cached = store.records[rel_dir]
                self._upsert(store, EntryRecord(
                    path=cached.path,
                    mode=attrs.st_mode,
                    size=attrs.st_size,
                    nlink=attrs.st_nlink,
                    uid=attrs.st_uid,
                    gid=attrs.st_gid,
                    content_md5=cached.content_md5,
                    xattr_md5=cached.xattr_md5,
                    atime=attrs.st_atime,
                    mtime=attrs.st_mtime,
                ))

        # 3. record-dirty: only the entry's own attributes (and possibly
        #    xattrs) changed; content and children stay cached.
        for path in sorted(dirty_records):
            if _excepted(path, marks) or _covered(path, rewalked):
                continue
            cached = store.records.get(path)
            if cached is None:
                continue  # evicted above; if it still exists it was re-walked
            try:
                attrs = kernel.lstat(mountpoint + path)
            except FsError as error:
                if error.code in (ENOENT, ENOTDIR):
                    self._evict(store, path)
                    continue
                raise
            xattr_digest = ""
            if options.include_xattrs and not attrs.is_symlink:
                xattr_digest = _hash_xattrs(kernel, mountpoint, mountpoint + path)
            # direct construction for the same reason as the parent-dirty
            # pass above; content stays cached by definition of this set
            self._upsert(store, EntryRecord(
                path=cached.path,
                mode=attrs.st_mode,
                size=attrs.st_size,
                nlink=attrs.st_nlink,
                uid=attrs.st_uid,
                gid=attrs.st_gid,
                content_md5=cached.content_md5,
                xattr_md5=xattr_digest,
                atime=attrs.st_atime,
                mtime=attrs.st_mtime,
            ))

        # consumed: clear only the sets that held marks
        for marked in (dirty_paths, dirty_parents, dirty_records):
            if marked:
                marked.clear()

    # -- checkpoint plumbing -------------------------------------------------
    def snapshot(self, mount) -> AbstractionToken:
        """Capture the cache plus the mount's pending dirty state.

        O(1): the token shares the store; marking it ``shared`` makes the
        next content mutation clone first, so the token stays frozen.
        """
        store = self._merkle
        if store is not None:
            store.shared = True
        return AbstractionToken(
            options=self.options,
            store=store,
            generation=self.generation,
            fully_dirty=mount.fully_dirty,
            dirty_paths=frozenset(mount.dirty_paths),
            dirty_records=frozenset(mount.dirty_records),
            dirty_parents=frozenset(mount.dirty_parents),
            multilink_inos=frozenset(mount.multilink_inos),
            change_generation=mount.change_generation,
        )

    def restore(self, token: AbstractionToken, mount) -> None:
        """Reinstate a captured cache + dirty state after an exact rollback.

        O(1): rebinds the shared store (no per-record copying or
        re-sorting) and re-marks it shared so the token survives further
        restores.  Non-LIFO restore orders are fine -- every token owns
        an immutable view of its store.
        """
        store = token.store
        if store is not None:
            store.shared = True
        self._merkle = store
        self.generation = token.generation
        self.counters["restores"] += 1
        mount.fully_dirty = token.fully_dirty
        mount.dirty_paths = set(token.dirty_paths)
        mount.dirty_records = set(token.dirty_records)
        mount.dirty_parents = set(token.dirty_parents)
        mount.multilink_inos = set(token.multilink_inos)
        mount.change_generation = token.change_generation

    def invalidate(self) -> None:
        """Forget everything: the next refresh is a full walk."""
        self._merkle = None
        self.generation = None
