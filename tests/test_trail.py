"""Counterexample trails: capture, deterministic replay, minimization.

The acceptance loop for the trail subsystem: every seeded VeriFS bug,
found by a long amortised-checking random walk, must produce a trail
that (a) replays CONFIRMED on a fresh harness, (b) ddmin-minimizes from
a 1000+-operation log to a handful of operations, and (c) still replays
CONFIRMED after minimization -- across visited-state store modes and
via the distributed fleet.
"""

import json
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import hunt_spec
from repro.core.ops import Operation
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
    result = spec.build_mcfs(trail_dir=str(trail_dir)).run_random(
        seed=1, max_operations=max_operations, max_depth=max_depth,
        backtrack_probability=backtrack)
    assert result.found_discrepancy, f"{bug} not found by the seeded walk"
    assert result.trail_path, f"{bug} produced no trail"
    return result


class TupleRecorder:
    """The reference recorder: one event tuple per call, kept in a list."""

    def __init__(self, max_events):
        self.events, self.max_events, self.truncated = [], max_events, False
        self.next_id = 0

    def append(self, event):
        if not self.truncated and len(self.events) >= self.max_events:
            self.truncated = True
        if not self.truncated:
            self.events.append(event)

    def operation(self, operation):
        self.append((trace.OP, operation))

    def check(self):
        self.append((trace.CHECK,))

    def fsck(self):
        self.append((trace.FSCK,))

    def checkpoint(self):
        self.next_id += 1
        self.append((trace.CHECKPOINT, self.next_id - 1))
        return self.next_id - 1

    def restore(self, checkpoint_id):
        self.append((trace.RESTORE, checkpoint_id))

    def schedule(self):
        return None if self.truncated else list(self.events)


#: one recorder call: an operation built afresh on every call (so equal
#: operations are distinct objects), a bare event, or a restore of an id
#: the recorder handed out (an index) or of any id up to 2**62 - 3
_recorder_calls = st.lists(st.one_of(
    st.tuples(st.just("operation"), st.sampled_from(["write", "unlink"]),
              st.integers(0, 3)),
    st.tuples(st.sampled_from(["check", "fsck", "checkpoint"])),
    st.tuples(st.just("restore-taken"), st.integers(0, 50)),
    st.tuples(st.just("restore"), st.one_of(
        st.integers(0, 2**62 - 3), st.sampled_from([2**31, 2**32 + 1])))),
    max_size=60)


class TestTrailRecorder:
    @settings(max_examples=200, deadline=None)
    @given(calls=_recorder_calls,
           max_events=st.one_of(st.integers(0, 70),
                                st.just(trace.DEFAULT_MAX_EVENTS)))
    def test_matches_the_tuple_reference(self, calls, max_events):
        recorder = TrailRecorder(max_events)
        reference = TupleRecorder(max_events)
        taken, recorded = [], 0
        for call in calls:
            recorded += 1
            if call[0] == "operation":
                for rec in (recorder, reference):
                    rec.operation(Operation(call[1], ("/f", call[2])))
            elif call[0] == "checkpoint":
                taken.append(recorder.checkpoint())
                assert reference.checkpoint() == taken[-1]
            elif call[0] in ("restore", "restore-taken"):
                checkpoint_id = call[1]
                if call[0] == "restore-taken":
                    if not taken:
                        recorded -= 1
                        continue
                    checkpoint_id = taken[checkpoint_id % len(taken)]
                recorder.restore(checkpoint_id)
                reference.restore(checkpoint_id)
            else:
                getattr(recorder, call[0])()
                getattr(reference, call[0])()
        assert recorder.truncated == (recorded > max_events)
        assert recorder.schedule() == reference.schedule()
        assert (recorder.schedule() is None) == recorder.truncated

    def test_an_event_is_one_word(self):
        operations = [Operation("write", ("/f", size)) for size in range(8)]
        recorder = TrailRecorder()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(25_000):
                checkpoint_id = recorder.checkpoint()
                recorder.operation(operations[index % len(operations)])
                recorder.check()
                recorder.restore(checkpoint_id)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert not recorder.truncated
        assert len(recorder.schedule()) == 100_000
        assert held / 100_000 < 16

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

    def test_the_spec_names_the_search_that_found_it(self, tmp_path):
        # a harness built from a walk's spec, driven by run_dfs: the
        # trail's spec says what actually ran
        spec = hunt_spec("extent-boundary-stale")
        mcfs = replace(spec, mode="random").build_mcfs(
            trail_dir=str(tmp_path))
        result = mcfs.run_dfs(max_depth=spec.depth, por=True)
        trail = Trail.load(result.trail_path)
        assert trail.spec == replace(spec, por=True, max_ops=None)
        assert trail.mode == "dfs"
        assert trail.describe().startswith("trail: dfs run, seed 0")

    def test_trail_from_before_the_spec_named_its_search_loads(
            self, tmp_path):
        """The earlier format: ``mode`` beside the spec, and a spec
        without the search fields."""
        result = hunt_spec("extent-boundary-stale").run(
            trail_dir=str(tmp_path))
        with open(result.trail_path, encoding="utf-8") as handle:
            document = json.load(handle)
        for key in ("mode", "depth", "por", "max_ops", "coverage"):
            del document["spec"][key]
        document["mode"] = "dfs"
        old = tmp_path / "old.trail.json"
        old.write_text(json.dumps(document))
        trail = Trail.load(str(old))
        assert trail.spec.mode == trail.mode == "dfs"
        assert replay_trail(trail).status == "CONFIRMED"

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

    @pytest.mark.parametrize("document", [
        [1, 2],
        [],
        {"format": "mcfs-trail", "version": 1, "spec": 5},
        {"format": "mcfs-trail", "version": 1, "report": {}},
        {"format": "mcfs-trail", "version": 1,
         "spec": CheckSpec(filesystems=("verifs1", "verifs2")).to_dict()},
    ], ids=["list", "empty-list", "spec-not-a-dict", "no-spec", "no-report"])
    def test_wrong_shape_rejected(self, document):
        with pytest.raises(TrailFormatError):
            Trail.from_dict(document)


#: schedules whose RESTOREs break the rule (repro.mc.trace.orphan_restores):
#: each restores a checkpoint that is not armed at that point
HOSTILE_SCHEDULES = {
    "never-taken": [(trace.CHECKPOINT, 0), (trace.CHECK,),
                    (trace.RESTORE, 7), (trace.CHECK,)],
    "restored-twice": [(trace.CHECKPOINT, 0), (trace.CHECK,),
                       (trace.RESTORE, 0), (trace.CHECK,),
                       (trace.RESTORE, 0), (trace.CHECK,)],
    "before-its-checkpoint": [(trace.RESTORE, 0), (trace.CHECKPOINT, 0),
                              (trace.CHECK,)],
}


class TestHostileSchedules:
    """A trail whose schedule restores a checkpoint it does not hold, or
    holds an event of an unknown kind, is refused as malformed input,
    not run."""

    @staticmethod
    def write(tmp_path, schedule):
        report = DiscrepancyReport(kind="state", summary="x vs y",
                                   schedule=schedule)
        trail = Trail(spec=CheckSpec(filesystems=("verifs1", "verifs2")),
                      report=report)
        path = tmp_path / "hostile.trail.json"
        path.write_text(json.dumps(trail.to_dict()))
        return str(path)

    @pytest.mark.parametrize("name", sorted(HOSTILE_SCHEDULES))
    def test_load_refuses(self, name, tmp_path):
        path = self.write(tmp_path, HOSTILE_SCHEDULES[name])
        with pytest.raises(TrailFormatError, match="restores checkpoint"):
            Trail.load(path)

    @pytest.mark.parametrize("command", ["replay", "minimize"])
    @pytest.mark.parametrize("name", sorted(HOSTILE_SCHEDULES))
    def test_cli_exits_2(self, name, command, tmp_path, capsys):
        from repro.cli import main

        path = self.write(tmp_path, HOSTILE_SCHEDULES[name])
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed schedule")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["replay", "minimize"])
    def test_unknown_event_kind_exits_2(self, command, tmp_path, capsys):
        from repro.cli import main

        path = self.write(tmp_path, [(trace.CHECK,), ("bogus",)])
        with pytest.raises(TrailFormatError, match="unknown schedule event"):
            Trail.load(path)
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err
        assert "Traceback" not in err


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


class TestFsckEventReplay:
    """A walk with the fsck oracle on records FSCK events; replay runs the
    oracle at each one (``TrailExecutor._fsck``)."""

    def test_replay_runs_the_oracle_and_minimises(self, tmp_path,
                                                  monkeypatch):
        from repro.analysis.oracle import FsckOracle

        spec = CheckSpec(filesystems=("verifs1", "verifs2"),
                         verifs_bugs=("size-update-on-capacity-only",),
                         pool="data-heavy", fsck_every=2, mode="random",
                         base_seed=1)
        result = spec.run(trail_dir=str(tmp_path))
        trail = Trail.load(result.trail_path)
        assert (trail.operations, trail.events) == (9, 35)
        assert any(event[0] == trace.FSCK for event in trail.report.schedule)

        checks = []
        oracle_call = FsckOracle.__call__

        def counted(oracle):
            checks.append(oracle)
            return oracle_call(oracle)

        monkeypatch.setattr(FsckOracle, "__call__", counted)
        verdict = replay_trail(trail)
        assert checks, "replay never ran the fsck oracle"
        assert verdict.status == "CONFIRMED", verdict.describe()

        minimized = minimize_trail(trail).trail
        assert minimized.operations == 2
        assert replay_trail(minimized).describe().endswith("[exact]")


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

    @pytest.mark.parametrize("workers", (0, 2))
    def test_unit_trail_embeds_the_spec_the_unit_ran(self, tmp_path,
                                                     workers):
        """Each unit writes its own trail: unit 1 of this rotation finds
        the bug (unit 0 does not), and its trail carries unit 1's input
        profile and operation budget, not the campaign's."""
        from repro.dist import DistributedChecker

        spec = CheckSpec(filesystems=("verifs1", "verifs2"),
                         verifs_bugs=("write-hole-stale",), units=2,
                         unit_operations=300,
                         profile_rotation=("meta-churn", "boundary"))
        dist = DistributedChecker(spec, workers=workers,
                                  trail_dir=str(tmp_path)).run()
        assert [unit for unit, _, _ in dist.discrepancy_signature()] == [1]
        assert len(dist.trail_paths) == 1
        trail = Trail.load(dist.trail_paths[0])
        assert trail.spec.input_profile == spec.unit_profile(1) == "boundary"
        assert trail.spec.max_ops == spec.unit_operations
        assert trail.seed == spec.work_units()[1].seed
        replay = replay_trail(trail)
        assert replay.confirmed and replay.exact
