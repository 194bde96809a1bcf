"""Tests for the paper's §7 future-work features, implemented here:

* majority voting across >= 3 file systems;
* the VFS-level checkpoint/restore API for kernel file systems;
* resumable checking (persisting the visited-state table);
* behavioural coverage tracking.
"""

import os

import pytest

from repro import (
    CoverageTracker,
    Ext2FileSystemType,
    Ext4FileSystemType,
    MCFS,
    MCFSOptions,
    RAMBlockDevice,
    SimClock,
    VeriFS1,
    VeriFS2,
    VeriFSBug,
    VfsCheckpointStrategy,
    vote_on_outcomes,
    vote_on_states,
)
from repro.core.integrity import Outcome
from repro.core.ops import Operation, OperationCatalog
from repro.core.voting import Verdict, describe_verdict
from repro.errors import ENOENT, ENOSPC
from repro.mc.hashtable import VisitedStateTable
from repro.mc.persistence import load_checker_state, save_checker_state


class TestMajorityVoting:
    def test_unanimous(self):
        verdict = vote_on_outcomes({
            "a": Outcome.success(0), "b": Outcome.success(0), "c": Outcome.success(0),
        })
        assert verdict.unanimous
        assert verdict.decisive

    def test_outlier_identified(self):
        verdict = vote_on_outcomes({
            "a": Outcome.success(0), "b": Outcome.success(0),
            "c": Outcome.failure(ENOSPC),
        })
        assert verdict.suspects == ["c"]
        assert verdict.decisive

    def test_different_errnos_are_different_votes(self):
        verdict = vote_on_outcomes({
            "a": Outcome.failure(ENOENT), "b": Outcome.failure(ENOENT),
            "c": Outcome.failure(ENOSPC),
        })
        assert verdict.suspects == ["c"]

    def test_two_way_tie_is_indecisive(self):
        verdict = vote_on_outcomes({
            "a": Outcome.success(0), "b": Outcome.failure(ENOENT),
        })
        assert not verdict.decisive
        assert len(verdict.suspects) == 1

    def test_state_vote(self):
        verdict = vote_on_states({"a": "h1", "b": "h1", "c": "h2"})
        assert verdict.suspects == ["c"]

    def test_describe_formats(self):
        assert "agree" in describe_verdict(Verdict(suspects=[], majority=["a"]))
        assert "culprit" in describe_verdict(
            Verdict(suspects=["c"], majority=["a", "b"], decisive=True))
        assert "tie" in describe_verdict(
            Verdict(suspects=["b"], majority=["a"], decisive=False))

    def test_end_to_end_names_the_buggy_fs(self):
        clock = SimClock()
        mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False,
                                       majority_voting=True))
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_verifs("buggy", VeriFS2(bugs=[VeriFSBug.SIZE_UPDATE_ON_CAPACITY_ONLY]))
        result = mcfs.run_dfs(max_depth=3, max_operations=100_000)
        assert result.found_discrepancy
        assert result.report.suspects == ["buggy"]
        assert "culprit" in str(result.report)

    def test_voting_off_means_no_suspects(self):
        clock = SimClock()
        mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False))
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("buggy", VeriFS2(bugs=[VeriFSBug.SIZE_UPDATE_ON_CAPACITY_ONLY]))
        result = mcfs.run_dfs(max_depth=3, max_operations=100_000)
        assert result.found_discrepancy
        assert result.report.suspects == []


class TestVfsCheckpointStrategy:
    def _fut(self, clock):
        from repro.core.futs import make_block_fut
        return make_block_fut("ext2", Ext2FileSystemType(),
                              RAMBlockDevice(256 * 1024, clock=clock), clock)

    def test_restore_is_exact_without_remount(self, clock):
        from repro.core.abstraction import AbstractionOptions
        fut = self._fut(clock)
        strategy = VfsCheckpointStrategy()
        options = AbstractionOptions()
        before = fut.abstract_state(options)
        token = strategy.checkpoint(fut)
        fut.kernel.mkdir(fut.mountpoint + "/later")
        strategy.restore(fut, token)
        assert fut.abstract_state(options) == before
        assert fut.remount_count == 0  # the whole point

    def test_restored_fs_is_consistent(self, clock):
        from repro.kernel.fdtable import O_CREAT, O_WRONLY
        fut = self._fut(clock)
        strategy = VfsCheckpointStrategy()
        fd = fut.kernel.open(fut.mountpoint + "/f", O_CREAT | O_WRONLY)
        fut.kernel.write(fd, b"kept")
        fut.kernel.close(fd)
        token = strategy.checkpoint(fut)
        fut.kernel.unlink(fut.mountpoint + "/f")
        strategy.restore(fut, token)
        assert fut.kernel.stat(fut.mountpoint + "/f").st_size == 4
        assert fut.check_consistency() == []
        # continue operating after the restore
        fut.kernel.mkdir(fut.mountpoint + "/d")
        fut.remount()
        assert fut.check_consistency() == []

    def test_token_is_reusable(self, clock):
        fut = self._fut(clock)
        strategy = VfsCheckpointStrategy()
        token = strategy.checkpoint(fut)
        fut.kernel.mkdir(fut.mountpoint + "/a")
        strategy.restore(fut, token)
        fut.kernel.mkdir(fut.mountpoint + "/b")
        strategy.restore(fut, token)
        names = [e.name for e in fut.kernel.getdents(fut.mountpoint)]
        assert names == ["lost+found"]

    def test_full_check_run_is_clean_and_remount_free(self):
        clock = SimClock()
        mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False))
        mcfs.add_block_filesystem("ext2", Ext2FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock),
                                  strategy=VfsCheckpointStrategy())
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock),
                                  strategy=VfsCheckpointStrategy())
        result = mcfs.run_dfs(max_depth=2, max_operations=2_000)
        assert not result.found_discrepancy, str(result.report)
        assert all(fut.remount_count == 0 for fut in mcfs.futs)

    def test_faster_than_remount_strategy(self):
        def measure(strategy_factory):
            clock = SimClock()
            mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False))
            for label, fstype in (("ext2", Ext2FileSystemType()),
                                  ("ext4", Ext4FileSystemType())):
                mcfs.add_block_filesystem(
                    label, fstype, RAMBlockDevice(256 * 1024, clock=clock),
                    strategy=strategy_factory())
            return mcfs.run_random(max_operations=150, seed=9).ops_per_second

        from repro.mc.strategies import RemountStrategy
        assert measure(VfsCheckpointStrategy) > measure(RemountStrategy)

    def test_requires_a_device(self, clock):
        from repro.core.futs import make_verifs_fut
        from repro.errors import FsError
        fut = make_verifs_fut("v", VeriFS2(), clock)
        with pytest.raises(FsError):
            VfsCheckpointStrategy().checkpoint(fut)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        from repro.util.hashing import md5_hex

        table = VisitedStateTable()
        table.visit(md5_hex("aaa"), 2)
        table.visit(md5_hex("bbb"), 0)
        path = str(tmp_path / "state.json")
        save_checker_state(path, table, operations_completed=42, runs=3)
        snapshot = load_checker_state(path)
        assert snapshot is not None
        assert len(snapshot.visited) == 2
        assert md5_hex("aaa") in snapshot.visited
        assert snapshot.visited.export_seen()[md5_hex("aaa")] == 2
        assert snapshot.operations_completed == 42
        assert snapshot.runs == 3

    def test_missing_file_returns_none(self, tmp_path):
        assert load_checker_state(str(tmp_path / "nope.json")) is None

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "buckets": 8, "seen": {}}')
        with pytest.raises(ValueError):
            load_checker_state(str(path))

    def test_save_is_atomic_no_tmp_left(self, tmp_path):
        table = VisitedStateTable()
        table.add("x")
        path = str(tmp_path / "state.json")
        save_checker_state(path, table)
        assert not os.path.exists(path + ".tmp")

    def test_resumed_run_skips_known_states(self, tmp_path):
        state_file = str(tmp_path / "checker.json")

        def fresh():
            clock = SimClock()
            mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False))
            mcfs.add_verifs("v1", VeriFS1())
            mcfs.add_verifs("v2", VeriFS2())
            return mcfs

        first = fresh().run_dfs(max_depth=2, state_file=state_file)
        snapshot = load_checker_state(state_file)
        assert snapshot.runs == 1
        states_after_first = len(snapshot.visited)
        assert states_after_first >= first.unique_states

        # resuming over an identical space discovers nothing new
        second = fresh().run_dfs(max_depth=2, state_file=state_file)
        assert second.unique_states == 0
        snapshot = load_checker_state(state_file)
        assert snapshot.runs == 2
        assert len(snapshot.visited) == states_after_first

    def test_resume_accumulates_operation_count(self, tmp_path):
        state_file = str(tmp_path / "checker.json")

        def fresh():
            clock = SimClock()
            mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False))
            mcfs.add_verifs("v1", VeriFS1())
            mcfs.add_verifs("v2", VeriFS2())
            return mcfs

        fresh().run_random(max_operations=100, seed=1, state_file=state_file)
        fresh().run_random(max_operations=150, seed=2, state_file=state_file)
        snapshot = load_checker_state(state_file)
        assert snapshot.operations_completed == 250


class TestCoverage:
    def test_records_operations_and_outcomes(self):
        catalog = OperationCatalog(include_extended=False)
        tracker = CoverageTracker(catalog)
        op = catalog.operations()[0]
        tracker.record(op, {"a": Outcome.success(0), "b": Outcome.success(0)})
        tracker.record(op, {"a": Outcome.failure(ENOENT), "b": Outcome.failure(ENOENT)})
        report = tracker.report()
        assert report.operations_covered == 1
        assert (op.name, "ok") in report.outcome_pairs
        assert (op.name, "ENOENT") in report.outcome_pairs
        assert report.error_paths_seen == 1

    def test_out_of_catalog_operations_are_counted(self):
        """Ops executed but absent from the catalog must be surfaced,
        not silently dropped from both sides of the percentage."""
        catalog = OperationCatalog(include_extended=False)
        tracker = CoverageTracker(catalog)
        known = catalog.operations()[0]
        foreign = Operation("write_file", ("/not-in-pool", 0, 4097, 65))
        assert foreign not in set(catalog.operations())
        tracker.record(known, {"a": Outcome.success(0)})
        tracker.record(foreign, {"a": Outcome.success(4097)})
        report = tracker.report()
        assert report.operations_covered == 1
        assert report.operations_total == len(catalog.operations())
        assert report.out_of_catalog == 1
        assert "out of catalog" in report.render()

    def test_out_of_catalog_silent_when_none(self):
        catalog = OperationCatalog(include_extended=False)
        tracker = CoverageTracker(catalog)
        tracker.record(catalog.operations()[0], {"a": Outcome.success(0)})
        report = tracker.report()
        assert report.out_of_catalog == 0
        assert "out of catalog" not in report.render()

    def test_per_class_counts(self):
        tracker = CoverageTracker()
        op = Operation("mkdir", ("/d", 0o755))
        tracker.record(op, {"a": Outcome.success(0)})
        tracker.record(op, {"a": Outcome.failure(ENOSPC)})
        executions, pairs = tracker.per_class_counts()
        assert executions["mkdir"] == 2
        assert pairs["mkdir"] == 2  # ok + ENOSPC

    def test_divergent_pairs_detected(self):
        tracker = CoverageTracker()
        op = Operation("mkdir", ("/d", 0o755))
        tracker.record(op, {"a": Outcome.success(0), "b": Outcome.failure(ENOSPC)})
        divergent = tracker.report().divergent_pairs()
        assert ("mkdir", "ENOSPC") in divergent["a"]
        assert ("mkdir", "ok") in divergent["b"]

    def test_full_run_reaches_full_operation_coverage(self):
        clock = SimClock()
        mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False,
                                       track_coverage=True))
        mcfs.add_verifs("v1", VeriFS1())
        mcfs.add_verifs("v2", VeriFS2())
        mcfs.run_dfs(max_depth=2, max_operations=5_000)
        report = mcfs.coverage_report()
        assert report.operation_coverage == 1.0
        assert report.error_paths_seen > 0

    def test_render_is_readable(self):
        clock = SimClock()
        mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False,
                                       track_coverage=True))
        mcfs.add_verifs("v1", VeriFS1())
        mcfs.add_verifs("v2", VeriFS2())
        mcfs.run_random(max_operations=150, seed=4)
        text = mcfs.coverage_report().render()
        assert "operation coverage" in text
        assert "outcome pairs" in text

    def test_coverage_off_raises(self):
        clock = SimClock()
        mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False))
        mcfs.add_verifs("v1", VeriFS1())
        mcfs.add_verifs("v2", VeriFS2())
        with pytest.raises(ValueError):
            mcfs.coverage_report()
