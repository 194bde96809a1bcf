"""Incremental abstraction hashing must be bit-identical to a full walk.

The EntryCache rebuilds only what the mount's dirty-path tracking says
changed; the full walk re-reads everything.  If they ever disagree --
after any operation, on any file system, or across a checkpoint/restore
-- the model checker would hash states wrong and silently merge or split
them.  These properties drive randomized operation sequences through the
kernel on every file-system family and assert the two paths agree at
every single step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Ext2FileSystemType,
    Ext4FileSystemType,
    Jffs2FileSystemType,
    MTDDevice,
    RAMBlockDevice,
    SimClock,
    VeriFS2,
    XfsFileSystemType,
)
from repro.core.abstraction import (
    AbstractionOptions,
    collect_entries,
    hash_entries,
    rename_entries,
)
from repro.core.futs import make_block_fut, make_verifs_fut
from repro.core.ops import OperationCatalog, ParameterPool
from repro.errors import FsError
from repro.kernel.fdtable import O_CREAT, O_RDWR, O_TRUNC
from repro.mc.strategies import IoctlStrategy, RemountStrategy

OPTIONS = AbstractionOptions()
#: a second cacheable variant, standing in for the engine's
#: ``matching_options`` -- it takes the full-walk route and must still
#: hash bit-identically to a reference walk
MATCHING = AbstractionOptions(include_owner=False, include_xattrs=False)

NAMES = ("a", "b", "c", "sub")
PAYLOADS = (b"", b"x", b"hello world", b"Z" * 700)


def build_fut(family: str):
    clock = SimClock()
    if family == "verifs2":
        return make_verifs_fut("verifs2", VeriFS2(), clock)
    if family == "jffs2":
        device = MTDDevice(256 * 1024, clock=clock, name="mtd0")
        return make_block_fut("jffs2", Jffs2FileSystemType(), device, clock)
    if family == "xfs":
        device = RAMBlockDevice(16 * 1024 * 1024, clock=clock, name="dev0")
        return make_block_fut("xfs", XfsFileSystemType(), device, clock)
    fstype = {"ext2": Ext2FileSystemType, "ext4": Ext4FileSystemType}[family]()
    device = RAMBlockDevice(256 * 1024, clock=clock, name="dev0")
    return make_block_fut(family, fstype, device, clock)


def apply_op(fut, op) -> None:
    """Run one scripted operation; FsError outcomes are legal states."""
    kernel, root = fut.kernel, fut.mountpoint
    kind = op[0]
    try:
        if kind == "create":
            fd = kernel.open(f"{root}/{op[1]}", O_CREAT | O_RDWR)
            kernel.write(fd, op[2])
            kernel.close(fd)
        elif kind == "append":
            fd = kernel.open(f"{root}/{op[1]}", O_RDWR)
            kernel.pwrite(fd, op[2], op[3])
            kernel.close(fd)
        elif kind == "overwrite":
            fd = kernel.open(f"{root}/{op[1]}", O_RDWR | O_TRUNC)
            kernel.write(fd, op[2])
            kernel.close(fd)
        elif kind == "mkdir":
            kernel.mkdir(f"{root}/{op[1]}")
        elif kind == "rmdir":
            kernel.rmdir(f"{root}/{op[1]}")
        elif kind == "unlink":
            kernel.unlink(f"{root}/{op[1]}")
        elif kind == "rename":
            kernel.rename(f"{root}/{op[1]}", f"{root}/{op[2]}")
        elif kind == "symlink":
            kernel.symlink(op[1], f"{root}/{op[2]}")
        elif kind == "link":
            kernel.link(f"{root}/{op[1]}", f"{root}/{op[2]}")
        elif kind == "chmod":
            kernel.chmod(f"{root}/{op[1]}", op[2])
        elif kind == "truncate":
            kernel.truncate(f"{root}/{op[1]}", op[2])
        elif kind == "remount":
            fut.remount()
    except FsError:
        pass


def assert_incremental_matches(fut) -> None:
    incremental = fut.abstract_state(OPTIONS, incremental=True)
    full = fut.abstract_state(OPTIONS, incremental=False)
    assert incremental == full, (
        f"{fut.label}: incremental hash diverged from full walk"
    )


def digest_pair(fut):
    """``(hash(OPTIONS), hash(MATCHING))``: the first from the cache
    route, the second from the full-walk route a differing matching
    variant takes."""
    records, state_hash, same_hash = fut.entries_digests(
        OPTIONS, OPTIONS, incremental=True)
    assert records is None  # cache route: records stay inside the cache
    assert same_hash == state_hash
    records, walked_hash, match_hash = fut.entries_digests(
        OPTIONS, MATCHING, incremental=True)
    assert records is not None  # a differing variant walks fully
    assert walked_hash == state_hash
    return state_hash, match_hash


def assert_digests_match_reference(fut) -> None:
    """The memoized fast path vs the reference walk, both variants."""
    state_hash, match_hash = digest_pair(fut)
    reference = collect_entries(fut.kernel, fut.mountpoint, OPTIONS)
    assert state_hash == hash_entries(reference, OPTIONS), (
        f"{fut.label}: memoized digest diverged from reference hash"
    )
    assert match_hash == hash_entries(reference, MATCHING), (
        f"{fut.label}: matching-variant digest diverged from reference"
    )


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.sampled_from(NAMES),
                  st.sampled_from(PAYLOADS)),
        st.tuples(st.just("append"), st.sampled_from(NAMES),
                  st.sampled_from(PAYLOADS), st.integers(0, 900)),
        st.tuples(st.just("overwrite"), st.sampled_from(NAMES),
                  st.sampled_from(PAYLOADS)),
        st.tuples(st.just("mkdir"), st.sampled_from(NAMES)),
        st.tuples(st.just("rmdir"), st.sampled_from(NAMES)),
        st.tuples(st.just("unlink"), st.sampled_from(NAMES)),
        st.tuples(st.just("rename"), st.sampled_from(NAMES),
                  st.sampled_from(NAMES)),
        st.tuples(st.just("symlink"), st.sampled_from(NAMES),
                  st.sampled_from(NAMES)),
        st.tuples(st.just("link"), st.sampled_from(NAMES),
                  st.sampled_from(NAMES)),
        st.tuples(st.just("chmod"), st.sampled_from(NAMES),
                  st.sampled_from((0o600, 0o755))),
        st.tuples(st.just("truncate"), st.sampled_from(NAMES),
                  st.integers(0, 1200)),
        st.tuples(st.just("remount")),
    ),
    min_size=1, max_size=12,
)

FAMILIES = ("ext2", "ext4", "xfs", "jffs2", "verifs2")


class TestIncrementalEqualsFullWalk:
    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=12, deadline=None)
    @given(ops=OPS)
    def test_every_step_matches(self, family, ops):
        fut = build_fut(family)
        assert_incremental_matches(fut)  # fresh mount: full walk seeds cache
        for op in ops:
            apply_op(fut, op)
            assert_incremental_matches(fut)

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=8, deadline=None)
    @given(ops=OPS, more=OPS)
    def test_matches_across_checkpoint_restore(self, family, ops, more):
        """Exact-restore strategies may reinstate the cache; after the
        rollback the incremental hash must still equal a fresh walk."""
        fut = build_fut(family)
        strategy = IoctlStrategy() if family == "verifs2" else RemountStrategy()
        for op in ops:
            apply_op(fut, op)
        assert_incremental_matches(fut)

        token = strategy.checkpoint(fut)
        abstraction = (fut.snapshot_abstraction()
                       if strategy.restores_exactly(fut) else None)
        reference = fut.abstract_state(OPTIONS, incremental=False)

        for op in more:
            apply_op(fut, op)
            assert_incremental_matches(fut)

        strategy.restore(fut, token)
        fut.restore_abstraction(abstraction)
        assert_incremental_matches(fut)
        assert fut.abstract_state(OPTIONS, incremental=True) == reference

    def test_cache_hit_skips_syscalls(self):
        """Unchanged mount + unchanged generation = zero-walk refresh."""
        fut = build_fut("ext2")
        apply_op(fut, ("create", "a", b"hello world"))
        fut.abstract_state(OPTIONS, incremental=True)
        before = fut.kernel.syscall_count
        fut.abstract_state(OPTIONS, incremental=True)
        assert fut.kernel.syscall_count == before

    def test_uncacheable_options_fall_back_to_full_walks(self):
        timestamps = AbstractionOptions(track_timestamps=True)
        fut = build_fut("ext2")
        apply_op(fut, ("create", "a", b"x"))
        fut.abstract_state(timestamps, incremental=True)
        assert fut._entry_cache is None  # never built for uncacheable options


class TestMemoizedDigestsEqualReference:
    """The hot path (`entries_digests`) vs the reference
    ``hash_entries(collect_entries(...))`` walk."""

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=10, deadline=None)
    @given(ops=OPS)
    def test_both_variants_match_at_every_step(self, family, ops):
        fut = build_fut(family)
        assert_digests_match_reference(fut)
        for op in ops:
            apply_op(fut, op)
            assert_digests_match_reference(fut)

    @pytest.mark.parametrize("family", ("ext2", "verifs2"))
    @settings(max_examples=8, deadline=None)
    @given(ops=OPS, more=OPS, after=OPS)
    def test_matches_across_checkpoint_restore_interleavings(
        self, family, ops, more, after
    ):
        """The digest lane must survive snapshot/restore: hash, checkpoint,
        mutate + hash, roll back, mutate again -- the memoized path must
        track the reference walk through the whole interleaving."""
        fut = build_fut(family)
        strategy = IoctlStrategy() if family == "verifs2" else RemountStrategy()
        for op in ops:
            apply_op(fut, op)
        assert_digests_match_reference(fut)

        token = strategy.checkpoint(fut)
        abstraction = (fut.snapshot_abstraction()
                       if strategy.restores_exactly(fut) else None)
        reference_hash, reference_match = digest_pair(fut)

        for op in more:
            apply_op(fut, op)
            assert_digests_match_reference(fut)

        strategy.restore(fut, token)
        fut.restore_abstraction(abstraction)
        assert_digests_match_reference(fut)
        restored_hash, restored_match = digest_pair(fut)
        assert (restored_hash, restored_match) == (
            reference_hash, reference_match)

        for op in after:
            apply_op(fut, op)
            assert_digests_match_reference(fut)

    def test_without_workarounds_falls_back_to_full_walk(self):
        """``sort_entries=False`` defeats the sorted Merkle store: the
        naive-abstraction ablation must take the full-walk route and
        still hash correctly."""
        naive = OPTIONS.without_workarounds()
        fut = build_fut("ext2")
        apply_op(fut, ("create", "a", b"x"))
        apply_op(fut, ("mkdir", "sub"))
        records, state_hash, match_hash = fut.entries_digests(
            naive, naive, incremental=True)
        assert records is not None  # full-walk route returns its records
        assert fut._entry_cache is None
        reference = collect_entries(fut.kernel, fut.mountpoint, naive)
        assert state_hash == hash_entries(reference, naive)
        assert match_hash == state_hash

    def test_uncacheable_matching_variant_falls_back(self):
        """A timestamp-tracking *matching* variant poisons the cache
        route even when the primary options are cacheable: stale atimes
        would hash wrong, so the pair must walk fully."""
        timestamps = AbstractionOptions(track_timestamps=True)
        fut = build_fut("ext2")
        apply_op(fut, ("create", "a", b"x"))
        records, state_hash, match_hash = fut.entries_digests(
            OPTIONS, timestamps, incremental=True)
        assert records is not None
        # both hashes come from the one walk's records (a *later* walk
        # would see different atimes -- reading content bumps them,
        # which is exactly why this variant cannot ride the cache)
        assert state_hash == hash_entries(records, OPTIONS)
        assert match_hash == hash_entries(records, timestamps)
        assert state_hash == hash_entries(
            collect_entries(fut.kernel, fut.mountpoint, OPTIONS), OPTIONS)


class TestViewAndCheckpointMechanics:
    def test_returned_tuple_safe_across_refresh(self):
        """The record view is immutable and never edited in place: a
        tuple held across later mutations + refreshes must keep its
        original contents."""
        fut = build_fut("ext2")
        apply_op(fut, ("create", "a", b"old"))
        held = fut.collect_entries(OPTIONS, incremental=True)
        assert isinstance(held, tuple)
        frozen = list(held)

        apply_op(fut, ("overwrite", "a", b"new contents"))
        apply_op(fut, ("mkdir", "sub"))
        refreshed = fut.collect_entries(OPTIONS, incremental=True)
        assert list(held) == frozen  # the old view is untouched
        assert refreshed != held
        # and the refreshed view hashes like a from-scratch reference
        # walk (hash comparison: the reference walk's own reads bump
        # atimes, so record-level equality would be vacuously broken)
        reference = collect_entries(fut.kernel, fut.mountpoint, OPTIONS)
        assert [r.path for r in refreshed] == [r.path for r in reference]
        assert hash_entries(refreshed, OPTIONS) == hash_entries(
            reference, OPTIONS)

    def test_restore_does_no_per_record_work(self):
        """Satellite regression: rolling back to a matching token must
        not copy, re-sort, re-encode, or re-hash records -- O(1) rebind
        of the shared store, zero syscalls."""
        fut = build_fut("verifs2")
        strategy = IoctlStrategy()
        for op in (("create", "a", b"x"), ("mkdir", "sub"),
                   ("create", "b", b"y" * 200)):
            apply_op(fut, op)
        fut.entries_digests(OPTIONS, OPTIONS, incremental=True)

        token = strategy.checkpoint(fut)
        abstraction = fut.snapshot_abstraction()
        baseline_hashes = digest_pair(fut)

        apply_op(fut, ("overwrite", "a", b"diverged"))
        fut.entries_digests(OPTIONS, OPTIONS, incremental=True)

        strategy.restore(fut, token)
        cache = fut._entry_cache
        counters_before = dict(cache.counters)
        syscalls_before = fut.kernel.syscall_count
        fut.restore_abstraction(abstraction)
        after = cache.counters
        assert fut.kernel.syscall_count == syscalls_before
        assert after["restores"] == counters_before["restores"] + 1
        for key in ("full_walks", "cow_clones", "records_encoded",
                    "blocks_hashed"):
            assert after[key] == counters_before[key], (
                f"restore did per-record work: {key}"
            )
        # the rolled-back digest is served from the shared store's memo,
        # and both hashes are bit-identical to the pre-divergence ones
        hits_before = after["digest_hits"]
        assert digest_pair(fut) == baseline_hashes
        assert cache.counters["digest_hits"] == hits_before + 1

    def test_snapshot_is_o1_and_shares_structure(self):
        """Checkpoint stacks share one store until a mutation clones it."""
        fut = build_fut("ext2")
        apply_op(fut, ("create", "a", b"x"))
        fut.abstract_state(OPTIONS, incremental=True)
        cache = fut._entry_cache
        first = fut.snapshot_abstraction()
        second = fut.snapshot_abstraction()
        assert first.store is cache._merkle
        assert second.store is cache._merkle  # no copies taken
        clones_before = cache.counters["cow_clones"]

        apply_op(fut, ("create", "b", b"y"))
        fut.abstract_state(OPTIONS, incremental=True)
        # the mutation cloned exactly once; both tokens keep the old store
        assert cache.counters["cow_clones"] == clones_before + 1
        assert first.store is second.store
        assert cache._merkle is not first.store


#: a pool with subtrees under the swapped names and a sibling ("/a.x")
#: that sorts between "/a" and its children
TWIN_CATALOG = OperationCatalog(ParameterPool(
    file_paths=("/a", "/b", "/a/x", "/b/x", "/a.x", "/c"),
    dir_paths=("/a", "/b", "/a/sd"),
    write_offsets=(0, 100), write_sizes=(64,), truncate_sizes=(0, 10),
))
TWIN_PAIRS = ((("/a", "/b"),), (("/a", "/b"), ("/c", "/a.x")))


class TestRenamedDigestEqualsRenamedWalk:
    """A twin key is the hash the renamed state would have: on both
    routes it must equal ``hash_entries`` of a full walk's records
    renamed and sorted again (``None`` when no record moves)."""

    @pytest.mark.parametrize("incremental", [True, False],
                             ids=["cache", "full-walk"])
    @pytest.mark.parametrize("family", ["ext2", "verifs2"])
    @settings(max_examples=10, deadline=None)
    @given(ops=st.lists(st.sampled_from(TWIN_CATALOG.operations()),
                        min_size=1, max_size=14))
    def test_every_step_matches(self, family, incremental, ops):
        fut = build_fut(family)
        for operation in ops:
            TWIN_CATALOG.execute(fut, operation)
            records, _, _ = fut.entries_digests(
                OPTIONS, OPTIONS, incremental=incremental)
            found = [fut.renamed_digest(records, OPTIONS, pairs)
                     for pairs in TWIN_PAIRS]
            reference = fut.collect_entries(OPTIONS, incremental=False)
            expected = []
            for pairs in TWIN_PAIRS:
                renamed = rename_entries(reference, pairs)
                expected.append(None if renamed is None
                                else hash_entries(renamed, OPTIONS))
            assert found == expected, operation.describe()
