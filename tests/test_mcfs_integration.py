"""End-to-end MCFS tests: the paper's headline behaviours.

Covers: clean cross-file-system comparisons (no false positives), the
discovery of all four historical VeriFS bugs, the section 3.2 corruption
with the naive strategy, report precision and replayability, and swarm
verification.
"""

import pytest

from repro import (
    Ext2FileSystemType,
    Ext4FileSystemType,
    Jffs2FileSystemType,
    MCFS,
    MCFSOptions,
    MTDDevice,
    NaiveDiskStrategy,
    ParameterPool,
    RAMBlockDevice,
    SimClock,
    VeriFS1,
    VeriFS2,
    VeriFSBug,
    XfsFileSystemType,
)
from repro.dist import CheckSpec, DistributedChecker


def make_mcfs(clock=None, **options_kw):
    clock = clock or SimClock()
    options_kw.setdefault("include_extended_operations", False)
    return MCFS(clock, MCFSOptions(**options_kw)), clock


class TestCleanComparisons:
    """No false positives: every clean pair must exhaust without report."""

    def test_ext2_vs_ext4(self):
        mcfs, clock = make_mcfs()
        mcfs.add_block_filesystem("ext2", Ext2FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        result = mcfs.run_dfs(max_depth=2, max_operations=2000)
        assert not result.found_discrepancy, str(result.report)
        assert result.stats.stopped_reason == "state space exhausted"

    def test_ext4_vs_xfs(self):
        mcfs, clock = make_mcfs()
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_block_filesystem("xfs", XfsFileSystemType(),
                                  RAMBlockDevice(16 * 1024 * 1024, clock=clock))
        result = mcfs.run_dfs(max_depth=2, max_operations=2000)
        assert not result.found_discrepancy, str(result.report)

    def test_ext4_vs_jffs2(self):
        mcfs, clock = make_mcfs()
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_block_filesystem("jffs2", Jffs2FileSystemType(),
                                  MTDDevice(256 * 1024, clock=clock))
        result = mcfs.run_dfs(max_depth=2, max_operations=2000)
        assert not result.found_discrepancy, str(result.report)

    def test_verifs1_vs_verifs2(self):
        mcfs, clock = make_mcfs()
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("verifs2", VeriFS2())
        result = mcfs.run_dfs(max_depth=3, max_operations=5000)
        assert not result.found_discrepancy, str(result.report)
        assert result.stats.stopped_reason == "state space exhausted"

    def test_three_way_comparison(self):
        """More than two file systems at once (the paper's future work)."""
        mcfs, clock = make_mcfs()
        mcfs.add_block_filesystem("ext2", Ext2FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_verifs("verifs2", VeriFS2())
        result = mcfs.run_dfs(max_depth=2, max_operations=1500)
        assert not result.found_discrepancy, str(result.report)

    def test_random_walk_clean(self):
        mcfs, clock = make_mcfs()
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("verifs2", VeriFS2())
        result = mcfs.run_random(max_operations=400, seed=11)
        assert not result.found_discrepancy, str(result.report)
        assert result.operations == 400


class TestBugDiscovery:
    """MCFS finds each historical bug and reports it precisely."""

    def test_truncate_stale_data_found(self):
        mcfs, clock = make_mcfs()
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_verifs("verifs1", VeriFS1(bugs=[VeriFSBug.TRUNCATE_STALE_DATA]))
        result = mcfs.run_dfs(max_depth=4, max_operations=300_000)
        assert result.found_discrepancy
        assert result.report.kind == "state"
        assert result.report.failing_operation.operation.name == "truncate"

    def test_missing_invalidation_found(self):
        mcfs, clock = make_mcfs()
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_verifs("verifs1", VeriFS1(bugs=[VeriFSBug.MISSING_CACHE_INVALIDATION]))
        result = mcfs.run_dfs(max_depth=3, max_operations=300_000)
        assert result.found_discrepancy

    def test_write_hole_found(self):
        mcfs, clock = make_mcfs()
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("verifs2", VeriFS2(bugs=[VeriFSBug.WRITE_HOLE_STALE]))
        result = mcfs.run_dfs(max_depth=3, max_operations=300_000)
        assert result.found_discrepancy
        assert result.report.kind == "state"
        assert result.report.failing_operation.operation.name == "write_file"

    def test_size_update_bug_found(self):
        mcfs, clock = make_mcfs()
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("verifs2", VeriFS2(bugs=[VeriFSBug.SIZE_UPDATE_ON_CAPACITY_ONLY]))
        result = mcfs.run_dfs(max_depth=3, max_operations=300_000)
        assert result.found_discrepancy

    def test_fixed_versions_pass_the_same_search(self):
        """After 'fixing' the bugs (no flags), the same searches are clean."""
        mcfs, clock = make_mcfs()
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("verifs2", VeriFS2())
        result = mcfs.run_dfs(max_depth=3, max_operations=300_000)
        assert not result.found_discrepancy


class TestReports:
    def _buggy_run(self):
        mcfs, clock = make_mcfs()
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("verifs2", VeriFS2(bugs=[VeriFSBug.SIZE_UPDATE_ON_CAPACITY_ONLY]))
        return mcfs, mcfs.run_dfs(max_depth=3, max_operations=100_000)

    def test_report_carries_operation_log(self):
        _, result = self._buggy_run()
        report = result.report
        assert report.operation_log
        assert all(set(l.outcomes) == {"verifs1", "verifs2"}
                   for l in report.operation_log)

    def test_report_renders_human_readable(self):
        _, result = self._buggy_run()
        text = str(result.report)
        assert "MCFS discrepancy" in text
        assert "operation sequence" in text
        assert "verifs1" in text and "verifs2" in text

    def test_report_has_state_diff(self):
        _, result = self._buggy_run()
        assert result.report.state_diff is not None
        assert not result.report.state_diff.empty

    def test_replay_reproduces_on_fresh_filesystems(self):
        mcfs, result = self._buggy_run()
        operations = result.report.operations()
        # replay on FRESH instances with the same bug: discrepancy reappears
        clock = SimClock()
        fresh = MCFS(clock, MCFSOptions(include_extended_operations=False))
        fresh.add_verifs("verifs1", VeriFS1())
        fresh.add_verifs("verifs2", VeriFS2(bugs=[VeriFSBug.SIZE_UPDATE_ON_CAPACITY_ONLY]))
        engine = fresh.engine()
        for operation in operations:
            for fut in engine.futs:
                engine.catalog.execute(fut, operation)
        options = fresh.options.abstraction
        states = [fut.abstract_state(options) for fut in engine.futs]
        assert states[0] != states[1]

    def test_replay_on_fixed_filesystems_is_clean(self):
        mcfs, result = self._buggy_run()
        operations = result.report.operations()
        clock = SimClock()
        fixed = MCFS(clock, MCFSOptions(include_extended_operations=False))
        fixed.add_verifs("verifs1", VeriFS1())
        fixed.add_verifs("verifs2", VeriFS2())
        engine = fixed.engine()
        for operation in operations:
            for fut in engine.futs:
                engine.catalog.execute(fut, operation)
        options = fixed.options.abstraction
        states = [fut.abstract_state(options) for fut in engine.futs]
        assert states[0] == states[1]


class TestCacheIncoherency:
    """Section 3.2 reproduced end to end."""

    PRESSURE_POOL = ParameterPool(
        file_paths=("/f0", "/f1", "/f2", "/f3", "/d0/f4", "/d1/f5"),
        dir_paths=("/d0", "/d1", "/d2"),
        write_offsets=(0,),
        write_sizes=(512, 3000),
        truncate_sizes=(0, 100),
    )

    def _fstypes(self):
        return (
            Ext2FileSystemType(cache_blocks=6, inode_cache_capacity=6),
            Ext4FileSystemType(cache_blocks=6, inode_cache_capacity=6),
        )

    def test_naive_disk_restore_corrupts(self):
        mcfs, clock = make_mcfs(pool=self.PRESSURE_POOL, consistency_check_every=1)
        ext2, ext4 = self._fstypes()
        mcfs.add_block_filesystem("ext2", ext2, RAMBlockDevice(256 * 1024, clock=clock),
                                  strategy=NaiveDiskStrategy())
        mcfs.add_block_filesystem("ext4", ext4, RAMBlockDevice(256 * 1024, clock=clock),
                                  strategy=NaiveDiskStrategy())
        result = mcfs.run_dfs(max_depth=4, max_operations=50_000)
        assert result.found_discrepancy
        assert result.report.kind in ("corruption", "state")

    def test_remount_strategy_is_immune(self):
        mcfs, clock = make_mcfs(pool=self.PRESSURE_POOL, consistency_check_every=10)
        ext2, ext4 = self._fstypes()
        mcfs.add_block_filesystem("ext2", ext2, RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_block_filesystem("ext4", ext4, RAMBlockDevice(256 * 1024, clock=clock))
        result = mcfs.run_dfs(max_depth=2, max_operations=2000)
        assert not result.found_discrepancy, str(result.report)


class _MkdirOvercountsNlink(VeriFS2):
    """A seeded bug: a new directory's link count is one too high."""

    def mkdir(self, dir_ino, name, mode, uid, gid):
        ino = super().mkdir(dir_ino, name, mode, uid, gid)
        self._writable(ino).nlink += 1
        return ino


class TestConsistencyCheckEvery:
    """``consistency_check_every=1`` turns a seeded fault into a
    ``corruption`` report, before the state comparison can see it."""

    def test_fuse_pair(self):
        mcfs, _clock = make_mcfs(consistency_check_every=1)
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("verifs2", _MkdirOvercountsNlink())
        result = mcfs.run_dfs(max_depth=2, max_operations=2000)
        assert result.found_discrepancy
        assert result.report.kind == "corruption"
        assert "verifs2 failed fsck-style checks" in result.report.summary
        assert "stored nlink 3, recomputed 2" in result.report.summary

    def test_block_pair(self):
        mcfs, clock = make_mcfs(consistency_check_every=1)
        ext2 = mcfs.add_block_filesystem(
            "ext2", Ext2FileSystemType(), RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        # the root directory's block, free in ext2's bitmap on disk
        fs = ext2.kernel.mount_at(ext2.mountpoint).fs
        fs.block_bitmap.clear(fs._load_inode(fs.ROOT_INO).direct[0])
        fs.sync()
        result = mcfs.run_dfs(max_depth=2, max_operations=2000)
        assert result.found_discrepancy
        assert result.report.kind == "corruption"
        assert "ext2 failed fsck-style checks" in result.report.summary
        assert "in use but free in bitmap" in result.report.summary


class TestEqualizationIntegration:
    def test_enabled_by_option(self):
        mcfs, clock = make_mcfs(equalize_free_space=True)
        mcfs.add_block_filesystem("ext2", Ext2FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        result = mcfs.run_dfs(max_depth=1, max_operations=200)
        assert not result.found_discrepancy
        free = [fut.statfs().bytes_free for fut in mcfs.futs]
        assert abs(free[0] - free[1]) <= 8192


class TestSwarm:
    """Swarm verification (sections 2 and 7) is a fleet campaign:
    seed- and depth-diversified members, union coverage."""

    @staticmethod
    def _swarm(members, depth, operations, workers=0, bug=None):
        spec = CheckSpec(filesystems=("verifs1", "verifs2"), units=members,
                         max_depth=depth, unit_operations=operations,
                         verifs_bugs=(bug.value,) if bug else ())
        return DistributedChecker(spec, workers=workers).run()

    def test_swarm_union_coverage_beats_single_member(self):
        result = self._swarm(members=4, depth=8, operations=250)
        best_single = max(unit.unique_states for unit in result.unit_results)
        assert result.visited_states >= best_single

    def test_swarm_parallel_time_less_than_sequential(self):
        result = self._swarm(members=3, depth=6, operations=150, workers=3)
        assert result.modeled_parallel_time < result.sequential_sim_time

    def test_swarm_finds_bug_and_stops(self):
        result = self._swarm(members=6, depth=10, operations=800,
                             bug=VeriFSBug.WRITE_HOLE_STALE)
        assert result.found_discrepancy
        assert result.discrepancies[0].kind == "state"
        # a member that finds the bug stops there; the others carry on
        finders = [unit for unit in result.unit_results
                   if unit.found_discrepancy]
        assert all(unit.operations < 800 for unit in finders)
        assert len(result.unit_results) == 6

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            self._swarm(members=0, depth=4, operations=10)


class TestMCFSConfiguration:
    def test_needs_two_filesystems(self):
        mcfs, clock = make_mcfs()
        mcfs.add_verifs("only", VeriFS1())
        with pytest.raises(ValueError):
            mcfs.run_dfs(max_depth=1)

    def test_duplicate_labels_rejected(self):
        mcfs, clock = make_mcfs()
        mcfs.add_verifs("same", VeriFS1())
        with pytest.raises(ValueError):
            mcfs.add_verifs("same", VeriFS2())

    def test_ops_per_second_computed(self):
        mcfs, clock = make_mcfs()
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("verifs2", VeriFS2())
        result = mcfs.run_dfs(max_depth=2, max_operations=200)
        assert result.ops_per_second > 0
        assert result.sim_time > 0
