"""Counterexample trails: capture, deterministic replay, minimization.

The acceptance loop for the trail subsystem: every seeded VeriFS bug,
found by a long amortised-checking random walk, must produce a trail
that (a) replays CONFIRMED on a fresh harness, (b) ddmin-minimizes from
a 1000+-operation log to a handful of operations, and (c) still replays
CONFIRMED after minimization -- across visited-state store modes and
via the distributed fleet.
"""

import json

import pytest

from repro.core.report import DiscrepancyReport
from repro.dist.spec import CheckSpec
from repro.mc import trace
from repro.mc.trace import TrailRecorder
from repro.trail import (
    Trail,
    TrailFormatError,
    minimize_trail,
    minimize_trail_naive,
    replay_trail,
)

#: per-bug campaign configs: (filesystems, pool, max_depth, backtrack).
#: missing-cache-invalidation only manifests across an ioctl restore, so
#: its walk backtracks constantly at shallow depth.
BUG_CONFIGS = {
    "truncate-stale-data": (("ext4", "verifs1"), "data-heavy", 12, 0.25),
    "missing-cache-invalidation": (("ext4", "verifs1"), "default", 2, 1.0),
    "write-hole-stale": (("verifs1", "verifs2"), "data-heavy", 12, 0.25),
    "size-update-on-capacity-only": (
        ("verifs1", "verifs2"), "data-heavy", 12, 0.25),
}


def capture_one(bug, trail_dir, state_store="exact", state_check_every=1000,
                max_operations=5000):
    filesystems, pool, max_depth, backtrack = BUG_CONFIGS[bug]
    spec = CheckSpec(filesystems=filesystems, verifs_bugs=(bug,), pool=pool,
                     state_store=state_store,
                     state_check_every=state_check_every)
    mcfs = spec.build_mcfs()
    mcfs.options.trail_dir = str(trail_dir)
    result = mcfs.run_random(seed=1, max_operations=max_operations,
                             max_depth=max_depth,
                             backtrack_probability=backtrack)
    assert result.found_discrepancy, f"{bug} not found by the seeded walk"
    assert result.trail_path, f"{bug} produced no trail"
    return result


class TestTrailRecorder:
    def test_records_all_event_kinds(self):
        recorder = TrailRecorder()
        token = recorder.checkpoint()
        recorder.operation("op-placeholder")
        recorder.check()
        recorder.fsck()
        recorder.restore(token)
        schedule = recorder.schedule()
        assert [event[0] for event in schedule] == [
            trace.CHECKPOINT, trace.OP, trace.CHECK, trace.FSCK,
            trace.RESTORE]
        assert trace.count_operations(schedule) == 1

    def test_overflow_disables_capture(self):
        recorder = TrailRecorder(max_events=3)
        for _ in range(5):
            recorder.operation("op")
        assert recorder.truncated
        assert recorder.schedule() is None

    def test_normalize_drops_orphan_restores(self):
        events = [
            (trace.RESTORE, 7),           # checkpoint 7 never taken: drop
            (trace.CHECKPOINT, 1),
            (trace.OP, "x"),
            (trace.RESTORE, 1),           # checkpoint 1 taken: keep
        ]
        normalized = trace.normalize(events)
        assert normalized == events[1:]


class TestTrailFiles:
    def test_save_load_round_trip(self, tmp_path):
        result = capture_one("size-update-on-capacity-only", tmp_path,
                             state_check_every=200, max_operations=2000)
        trail = Trail.load(result.trail_path)
        assert trail.operations >= 1
        assert trail.digest() == Trail.load(result.trail_path).digest()
        assert trail.spec.verifs_bugs == ("size-update-on-capacity-only",)
        # the embedded report is lossless, schedule included
        restored = DiscrepancyReport.from_dict(trail.report.to_dict())
        assert restored.schedule == trail.report.schedule

    def test_not_a_trail_rejected(self, tmp_path):
        path = tmp_path / "junk.trail.json"
        path.write_text("{\"format\": \"something-else\"}")
        with pytest.raises(TrailFormatError):
            Trail.load(str(path))

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "future.trail.json"
        path.write_text(json.dumps({"format": "mcfs-trail", "version": 99}))
        with pytest.raises(TrailFormatError):
            Trail.load(str(path))

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.trail.json"
        path.write_text("not json at all")
        with pytest.raises(TrailFormatError):
            Trail.load(str(path))


class TestCaptureReplayMinimize:
    """The acceptance matrix: long log -> CONFIRMED -> <= 10 ops."""

    @pytest.mark.parametrize("bug", sorted(BUG_CONFIGS))
    def test_bug_round_trip(self, bug, tmp_path):
        result = capture_one(bug, tmp_path)
        trail = Trail.load(result.trail_path)
        assert trail.operations >= 1000, (
            f"{bug}: log too short to exercise minimization")

        replayed = replay_trail(trail)
        assert replayed.confirmed, replayed.describe()

        minimized = minimize_trail(trail)
        assert minimized.minimized_operations <= 10, minimized.describe()
        assert minimized.trail.minimized_from == trail.operations

        again = replay_trail(minimized.trail)
        assert again.confirmed, again.describe()

    @pytest.mark.parametrize("store", ["exact", "hc", "bitstate"])
    def test_store_modes(self, store, tmp_path):
        result = capture_one("size-update-on-capacity-only", tmp_path,
                             state_store=store, state_check_every=200,
                             max_operations=2000)
        trail = Trail.load(result.trail_path)
        assert replay_trail(trail).confirmed
        minimized = minimize_trail(trail)
        assert minimized.minimized_operations <= 10
        assert replay_trail(minimized.trail).confirmed


class TestReplayVerdicts:
    def test_not_reproduced_when_bug_removed(self, tmp_path):
        # simulate a fixed bug (or a determinism failure): same schedule,
        # but the spec no longer injects the bug
        result = capture_one("size-update-on-capacity-only", tmp_path,
                             state_check_every=200, max_operations=2000)
        trail = Trail.load(result.trail_path)
        trail.spec = CheckSpec.from_dict(
            {**trail.spec.to_dict(), "verifs_bugs": []})
        verdict = replay_trail(trail)
        assert verdict.status == "NOT-REPRODUCED"
        assert not verdict.confirmed

    def test_minimize_refuses_non_reproducing_trail(self, tmp_path):
        result = capture_one("size-update-on-capacity-only", tmp_path,
                             state_check_every=200, max_operations=2000)
        trail = Trail.load(result.trail_path)
        trail.spec = CheckSpec.from_dict(
            {**trail.spec.to_dict(), "verifs_bugs": []})
        with pytest.raises(ValueError, match="does not reproduce"):
            minimize_trail(trail)


class TestNaiveBaseline:
    def test_naive_agrees_with_ddmin(self, tmp_path):
        # a deliberately short trail: the baseline re-executes the whole
        # candidate per probe, so its cost grows quadratically (the
        # benchmark measures that; this test only checks agreement)
        result = capture_one("write-hole-stale", tmp_path,
                             state_check_every=25, max_operations=800)
        trail = Trail.load(result.trail_path)
        fast = minimize_trail(trail)
        slow = minimize_trail_naive(trail)
        assert slow.minimized_operations == fast.minimized_operations
        assert replay_trail(slow.trail).confirmed


class TestDistributedTrails:
    def test_fleet_ships_replayable_trails(self, tmp_path):
        from repro.dist import DistributedChecker

        spec = CheckSpec(filesystems=("verifs1", "verifs2"),
                         verifs_bugs=("size-update-on-capacity-only",),
                         pool="data-heavy", unit_operations=400,
                         state_check_every=200)
        dist = DistributedChecker(spec, workers=2,
                                  trail_dir=str(tmp_path)).run()
        assert dist.found_discrepancy
        assert dist.trail_paths, "fleet found the bug but shipped no trail"
        trail = Trail.load(dist.trail_paths[0])
        assert replay_trail(trail).confirmed
        minimized = minimize_trail(trail)
        assert minimized.minimized_operations <= 10
        assert replay_trail(minimized.trail).confirmed
