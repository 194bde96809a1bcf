"""The checkpoint tree under trail minimization.

A schedule is a tree of ``CHECKPOINT id ... RESTORE id`` episodes, and
the minimizer treats it as one: live-path projection first, ddmin over
episode atoms second, every probe on a freshly built harness.  These
tests pin each piece down by *executing* it rather than by argument.
"""

import gc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import BUG_PAIRS, hunt_spec, main
from repro.dist.spec import CheckSpec
from repro.mc import trace
from repro.mc.explorer import Explorer
from repro.trail import Trail, TrailExecutor, minimize_trail, replay_trail
from repro.trail import minimize as minimize_module
from repro.trail import replay as replay_module
from repro.trail.minimize import _FreshProber, _Reduction

C, R, OP, CHECK = trace.CHECKPOINT, trace.RESTORE, trace.OP, trace.CHECK

#: the one seeded bug that corrupts restore itself (ghost dcache entries
#: survive every ioctl rollback): only its full schedule reproduces
RESTORE_CORRUPTING = "missing-cache-invalidation"


def dfs_trail(bug, tmp_path, por=False):
    """The trail of a ``repro bugdemo``-style depth-bounded DFS hunt."""
    result = replace(hunt_spec(bug), por=por).run(trail_dir=str(tmp_path))
    assert result.found_discrepancy and result.trail_path
    return Trail.load(result.trail_path)


# ------------------------------------------------------------ tree view --
class TestLivePath:
    def test_nested_episodes_cancel(self):
        events = [(OP, "a"), (C, 0), (OP, "b"), (C, 1), (OP, "c"), (R, 1),
                  (CHECK,), (R, 0), (OP, "d"), (CHECK,)]
        assert trace.live_path(events) == [(OP, "a"), (OP, "d"), (CHECK,)]

    def test_dfs_shape_keeps_the_open_branch(self):
        # C0 a [C1 b R1] C2 c <violation>: nothing restores 0 and 2
        events = [(C, 0), (OP, "a"), (CHECK,), (C, 1), (OP, "b"), (CHECK,),
                  (R, 1), (C, 2), (OP, "c")]
        assert trace.live_path(events) == [(OP, "a"), (CHECK,), (OP, "c")]

    def test_interleaved_episodes(self):
        # what single-event ddmin (or a random walk) leaves behind: R1
        # returns to the state *at C1*, which is after a, not after c
        events = [(C, 0), (OP, "a"), (C, 1), (OP, "b"), (R, 0), (OP, "c"),
                  (R, 1), (OP, "d")]
        assert trace.live_path(events) == [(OP, "a"), (OP, "d")]

    def test_orphan_restore_changes_nothing(self):
        events = [(OP, "a"), (R, 9), (OP, "b")]
        assert trace.live_path(events) == [(OP, "a"), (OP, "b")]

    def test_restoring_the_same_checkpoint_twice(self):
        events = [(C, 0), (OP, "a"), (R, 0), (OP, "b"), (R, 0), (OP, "c")]
        assert trace.live_path(events) == [(OP, "c")]


class TestAtoms:
    @staticmethod
    def top(events):
        return trace.atoms(events, list(range(len(events))))

    def test_nested_episode_is_one_atom(self):
        events = [(OP, "a"), (C, 0), (OP, "b"), (C, 1), (OP, "c"), (R, 1),
                  (R, 0), (OP, "d")]
        assert self.top(events) == [[0], [1, 2, 3, 4, 5, 6], [7]]

    def test_dead_checkpoint_is_a_single_event(self):
        # a CHECKPOINT nothing restores must not swallow what follows
        events = [(C, 0), (OP, "a"), (C, 1), (OP, "b"), (R, 1), (OP, "c")]
        assert self.top(events) == [[0], [1], [2, 3, 4], [5]]

    def test_interleaved_episodes_merge(self):
        events = [(C, 0), (OP, "a"), (C, 1), (OP, "b"), (R, 0), (OP, "c"),
                  (R, 1), (OP, "d")]
        assert self.top(events) == [[0, 1, 2, 3, 4, 5, 6], [7]]

    def test_orphan_restore_is_a_single_event(self):
        events = [(R, 7), (C, 1), (OP, "x"), (R, 1)]
        assert self.top(events) == [[0], [1, 2, 3]]
        assert trace.orphan_restores(events) == [0]

    def test_split_peels_one_frame(self):
        events = [(C, 0), (OP, "b"), (C, 1), (OP, "c"), (R, 1), (R, 0)]
        frame, *children = trace.split(events, [0, 1, 2, 3, 4, 5])
        assert frame == [0, 5]
        assert children == [[1], [2, 3, 4]]
        # a bare frame and a single event have no children
        assert trace.split(events, frame) == [frame]
        assert trace.split(events, [1]) == [[1]]

    def test_split_of_interleaved_atom_stays_balanced(self):
        events = [(C, 0), (OP, "a"), (C, 1), (OP, "b"), (R, 0), (OP, "c"),
                  (R, 1)]
        parts = trace.split(events, list(range(len(events))))
        assert parts == [[0, 4], [1], [2, 3, 5, 6]]
        for keep in ([parts[0]], [parts[2]], parts[1:], parts[:2]):
            positions = sorted(p for atom in keep for p in atom)
            candidate = [events[p] for p in positions]
            assert trace.orphan_restores(candidate) == []

    def test_atoms_cover_every_position_once(self):
        events = [(C, 0), (OP, "a"), (C, 1), (R, 0), (C, 2), (OP, "b"),
                  (R, 1), (R, 2), (R, 5), (C, 3)]
        flat = [p for atom in self.top(events) for p in atom]
        assert flat == list(range(len(events)))


# --------------------------------------------------- ddmin over atoms --
def ghost_oracle(candidate):
    """A restore-dependent toy bug: ``b`` fails once a rollback has
    cancelled an ``a`` (the shape of missing-cache-invalidation)."""
    path, saved, ghost = [], {}, False
    for index, event in enumerate(candidate):
        if event[0] == C:
            saved[event[1]] = len(path)
        elif event[0] == R:
            assert event[1] in saved, "candidate orphans a RESTORE"
            ghost = ghost or (OP, "a") in path[saved[event[1]]:]
            del path[saved[event[1]]:]
        else:
            path.append(event)
            if ghost and event == (OP, "b"):
                return candidate[:index + 1]
    return None


def dfs_like_schedule(width=5, depth=3):
    """A complete ``width``-ary checkpoint tree with ``a`` deep inside
    one early branch and ``b`` on the last, still open, branch."""
    events, next_id = [], [0]

    def subtree(level, marked):
        for branch in range(width):
            checkpoint_id = next_id[0]
            next_id[0] += 1
            events.append((C, checkpoint_id))
            deepest = marked and branch == 1 and level == depth - 1
            events.append((OP, "a" if deepest else f"x{checkpoint_id}"))
            events.append((CHECK,))
            if level + 1 < depth:
                subtree(level + 1, marked and branch == 1)
            events.append((R, checkpoint_id))

    subtree(0, True)
    return events + [(C, next_id[0]), (OP, "y"), (CHECK,), (OP, "b")]


class TestReduction:
    def test_finds_the_minimal_episode(self):
        events = dfs_like_schedule()
        assert ghost_oracle(events) is not None
        assert ghost_oracle(trace.live_path(events)) is None
        probes = []

        def failing(candidate):
            probes.append(len(candidate))
            return ghost_oracle(candidate)

        reduction = _Reduction(events, failing)
        reduction.run()
        minimal = reduction.schedule()
        assert [event[0] for event in minimal] == [C, OP, R, OP]
        assert minimal[1] == (OP, "a") and minimal[3] == (OP, "b")
        # 1-minimal: no single event can go
        for index in range(len(minimal)):
            shorter = trace.normalize(minimal[:index] + minimal[index + 1:])
            assert ghost_oracle(shorter) is None
        # whole subtrees went first: far fewer probes than events
        assert len(probes) < len(events) / 2

    def test_dominant_atom_is_judged_then_split(self):
        # the random-walk shape: one episode holds nearly everything and
        # is needed, so it must not ride along while the tail is pruned
        events = ([(C, 0)] + [(OP, f"x{n}") for n in range(200)]
                  + [(OP, "a"), (R, 0), (C, 1)]
                  + [(OP, f"t{n}") for n in range(20)] + [(OP, "b")])
        sizes = []

        def failing(candidate):
            sizes.append(len(candidate))
            return ghost_oracle(candidate)

        reduction = _Reduction(events, failing)
        reduction.run()
        assert reduction.schedule() == [(C, 0), (OP, "a"), (R, 0), (OP, "b")]
        # first probe: the rest without the episode; never again does a
        # run of probes carry all 203 events of it
        assert sizes[0] == 22
        assert sum(1 for size in sizes if size > 203) <= 4

    def test_budget_cut_keeps_the_progress_made(self):
        events = dfs_like_schedule()
        budget = [12]

        def failing(candidate):
            if not budget[0]:
                raise RuntimeError("out of probes")
            budget[0] -= 1
            return ghost_oracle(candidate)

        reduction = _Reduction(events, failing)
        with pytest.raises(RuntimeError):
            reduction.run()
        partial = reduction.schedule()
        assert len(partial) < len(events)
        assert ghost_oracle(partial) is not None

    def test_exhausted_minimize_returns_a_smaller_trail(self, tmp_path):
        trail = dfs_trail("truncate-stale-data", tmp_path)
        result = minimize_trail(trail, max_probes=8)
        assert result.exhausted
        assert result.minimized_events < trail.events
        assert replay_trail(result.trail).confirmed
        assert "not 1-minimal" in result.describe()


# ------------------------------------------- soundness by execution --
#: a nested schedule: an operation (index into the catalog), a state
#: comparison, or an episode wrapping a sub-schedule
_items = st.recursive(
    st.one_of(st.integers(min_value=0, max_value=10_000), st.just("check")),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=14,
)
_schedules = st.lists(_items, min_size=1, max_size=6)

BUG_FREE_PAIRS = {
    "verifs-ioctl": CheckSpec(filesystems=("verifs1", "verifs2"),
                              strategy="ioctl"),
    "ext4-verifs1": CheckSpec(filesystems=("ext4", "verifs1")),
}


def _flatten(items, actions, events, next_id):
    for item in items:
        if item == "check":
            events.append((CHECK,))
        elif isinstance(item, tuple):
            checkpoint_id = next_id[0]
            next_id[0] += 1
            events.append((C, checkpoint_id))
            _flatten(item, actions, events, next_id)
            events.append((R, checkpoint_id))
        else:
            events.append((OP, actions[item % len(actions)]))
    return events


def _end_state(spec, events):
    executor = TrailExecutor(spec)
    index, violation = executor.execute(events)
    assert violation is None, f"bug-free pair diverged at event {index}"
    engine = executor.engine
    digests = [fut.abstract_state(engine.options) for fut in engine.futs]
    log = [(logged.operation,
            {label: (outcome.ok, outcome.errno)
             for label, outcome in logged.outcomes.items()})
           for logged in engine.operation_log]
    return digests, log


class TestLivePathSoundness:
    """On a harness whose restore is exact, the cancelled episodes leave
    no trace: the live path alone ends in the same place."""

    @pytest.mark.parametrize("pair", sorted(BUG_FREE_PAIRS))
    @settings(max_examples=20, deadline=None)
    @given(items=_schedules)
    def test_live_path_ends_in_the_same_state(self, pair, items):
        spec = BUG_FREE_PAIRS[pair]
        actions = list(spec.build_mcfs().engine().catalog.operations())
        events = _flatten(items, actions, [], [0])
        path = trace.live_path(events)
        assert all(event[0] in (OP, CHECK) for event in path)
        assert _end_state(spec, path) == _end_state(spec, events)


# ------------------------------------------------- restore-dependent --
class TestVerdictSurvivesPollutionDiscovery:
    """A bug in restore itself: the live path alone runs clean."""

    @pytest.mark.parametrize("por", [False, True])
    def test_restore_corrupting_dfs_trail_minimizes(self, por, tmp_path):
        # the live path alone runs clean; the full schedule must still
        # be recognised as reproducing (the replay just CONFIRMED it)
        # instead of being refused as flaky
        trail = dfs_trail(RESTORE_CORRUPTING, tmp_path, por=por)
        assert replay_trail(trail).confirmed
        result = minimize_trail(trail)
        assert not result.projected
        assert result.minimized_operations <= 4
        assert replay_trail(result.trail).confirmed


# --------------------------------------------------------- lazy frames --
def widest_frame(events):
    """Most OP events any CHECKPOINT..RESTORE frame holds at its own
    level (operations of nested frames not counted)."""
    widest, open_frames = 0, []
    for event in events:
        if event[0] == C:
            open_frames.append(0)
        elif event[0] == R:
            widest = max(widest, open_frames.pop())
        elif event[0] == OP and open_frames:
            open_frames[-1] += 1
    return widest


def rearm_under_one_id(events):
    """The same schedule with a node's re-armed checkpoints sharing the
    id of its first one.  In a DFS schedule a CHECKPOINT straight after
    a RESTORE is the same node arming again, so the frames of one id
    never overlap and the run is unchanged."""
    renamed, result = {}, []
    for event in events:
        if event[0] == C and result and result[-1][0] == R:
            renamed[event[1]] = result[-1][1]
        if event[0] in (C, R):
            event = (event[0], renamed.get(event[1], event[1]))
        result.append(event)
    return result


class TestLazyCheckpointFrames:
    """The DFS loop arms a node's checkpoint before its first executed
    child and spends it on the first child that moves the state, so a
    frame encloses the no-op siblings run before that child."""

    @pytest.mark.parametrize("shared_ids", [False, True],
                             ids=["fresh-ids", "same-id-rearmed"])
    def test_wide_frames_load_replay_and_minimize(self, shared_ids,
                                                  tmp_path):
        trail = dfs_trail("write-hole-stale", tmp_path)
        events = trail.report.schedule
        assert widest_frame(events) >= 3
        assert trace.orphan_restores(events) == []
        if shared_ids:
            trail.report.schedule = rearm_under_one_id(events)
            ids = [e[1] for e in trail.report.schedule if e[0] == C]
            assert len(set(ids)) < len(ids)
            assert (trace.live_path(trail.report.schedule)
                    == trace.live_path(events))
        loaded = Trail.load(trail.save(str(tmp_path / "wide.trail.json")))
        assert loaded.report.schedule == trail.report.schedule
        replayed = replay_trail(loaded)
        assert replayed.confirmed
        assert replayed.events == loaded.events  # verbatim, to the end
        text = minimize_trail(loaded).describe()
        assert "probes: live path reproduced" in text

    def test_live_path_keeps_the_noops_of_open_frames(self):
        # C0 a(no-op) b(no-op) c [C1 d(no-op) e <violation>: the no-ops
        # ran on the way to the violation and stay in the operation log
        events = [(CHECK,), (C, 0), (OP, "a"), (CHECK,), (OP, "b"),
                  (CHECK,), (OP, "c"), (CHECK,), (C, 1), (OP, "d"),
                  (CHECK,), (OP, "e")]
        assert [e[1] for e in trace.live_path(events) if e[0] == OP] \
            == ["a", "b", "c", "d", "e"]
        # ... and a spent frame takes its no-ops with it
        events[8:8] = [(R, 0), (C, 2), (OP, "f"), (CHECK,)]
        assert [e[1] for e in trace.live_path(events) if e[0] == OP] \
            == ["f", "d", "e"]


class TestReplayVerdictTag:
    """Explorer trails and minimized trails replay ``[exact]``."""

    def test_ioctl_dfs_trails_replay_exact(self, tmp_path):
        # replay restores as the explorer did, spending each checkpoint
        # once, so it charges what the explorer charged: the report is
        # the recorded one but for the schedule it does not record.
        # write-hole-stale restores ioctl tokens only (verifs1/verifs2),
        # truncate-stale-data remount and ioctl ones (ext4/verifs1)
        for bug in ("write-hole-stale", "truncate-stale-data"):
            trail = dfs_trail(bug, tmp_path / bug)
            replayed = replay_trail(trail)
            assert replayed.confirmed and replayed.exact, bug
            assert replayed.describe().endswith("[exact]")
            recorded = trail.report.to_dict()
            again = replayed.report.to_dict()
            assert again.pop("schedule") is None
            del recorded["schedule"]
            assert again == recorded, bug

    def test_minimized_trail_replays_exact(self, tmp_path):
        # its report was recorded by the replayer's own executor
        minimized = minimize_trail(dfs_trail(RESTORE_CORRUPTING, tmp_path))
        tags = [event[0] for event in minimized.trail.report.schedule]
        assert R in tags
        replayed = replay_trail(minimized.trail)
        assert replayed.confirmed and replayed.exact
        assert replayed.describe().endswith("[exact]")


class TestEachQuestionOnce:
    """A probe's outcome is a function of its events (every probe runs on
    a fresh harness), so the prober answers what an executed candidate
    already decides without building one."""

    def test_answered_candidates_build_no_harness(self, tmp_path,
                                                  monkeypatch):
        trail = dfs_trail("write-hole-stale", tmp_path)
        events = trace.normalize(list(trail.report.schedule))
        built = []

        class CountingExecutor(TrailExecutor):
            def __init__(self, spec):
                built.append(spec)
                super().__init__(spec)

        monkeypatch.setattr(minimize_module, "TrailExecutor",
                            CountingExecutor)
        prober = _FreshProber(trail.spec, trail.signature(), max_probes=2)
        cut = prober(events)
        stop = len(cut) - 1
        assert cut == events[:stop + 1] and stop > 2
        assert prober(events[:stop]) is None  # everything before: clean
        assert len(built) == prober.probes == 2
        executed = prober.events_executed
        # a repeat, an extension of the failing prefix, and a prefix of
        # the clean run: all answered, none built, none counted, and the
        # spent budget (2 probes) is not asked
        assert prober(list(events)) == cut
        assert prober(cut + [(CHECK,)]) == cut
        assert prober(events[:stop // 2]) is None
        assert len(built) == prober.probes == 2
        assert prober.events_executed == executed


# ----------------------------------------------------- replay tokens --
class _WatchedExecutor(TrailExecutor):
    """An executor that notes, whenever an event reaches the target, the
    event's index and the checkpoint ids it holds tokens for."""

    def __init__(self, spec):
        super().__init__(spec)
        self.held, self.calls = [], {"checkpoint": 0, "restore": 0}
        for name in ("apply", "abstract_state", "checkpoint", "restore"):
            setattr(self.target, name,
                    self._watched(name, getattr(self.target, name)))

    def _watched(self, name, method):
        def call(*args):
            self.held.append((self.events_executed - 1, set(self.tokens)))
            if name in self.calls:
                self.calls[name] += 1
            return method(*args)
        return call


def harnesses():
    """Explorers and trail executors alive right now, collected or not."""
    return sum(isinstance(obj, (Explorer, TrailExecutor))
               for obj in gc.get_objects())


class TestFoundBugHoldsNoCycle:
    def test_hunt_and_replay_free_their_harnesses_without_a_collection(
            self, tmp_path):
        # a violation kept with its traceback points back, through its
        # frames, at the explorer's stats and the replay loop's locals: a
        # cycle holding the DFS stack, explorer and executor until a full
        # collection
        gc.collect()
        gc.disable()
        try:
            before = harnesses()
            result = hunt_spec("write-hole-stale").run(trail_dir=str(tmp_path))
            replayed = replay_trail(Trail.load(result.trail_path))
            assert result.found_discrepancy and replayed.confirmed
            del result, replayed
            assert harnesses() == before
        finally:
            gc.enable()

    def test_minimization_frees_every_probe_harness(self, tmp_path):
        # the minimizer builds one harness per probe: each must go with
        # its probe, not wait for a collection
        trail = dfs_trail("write-hole-stale", tmp_path)
        gc.collect()
        gc.disable()
        try:
            before = harnesses()
            minimized = minimize_trail(trail)
            assert minimized.probes > 1
            assert harnesses() == before
        finally:
            gc.enable()


class TestReplayTokenLifetime:
    def test_tokens_live_until_their_last_restore(self, tmp_path,
                                                  monkeypatch):
        # ext4 + verifs1 under remount: an ext4 token holds disk chunks
        trail = dfs_trail("truncate-stale-data", tmp_path)
        executors = []

        def watched(spec):
            executors.append(_WatchedExecutor(spec))
            return executors[-1]

        monkeypatch.setattr(replay_module, "TrailExecutor", watched)
        replayed = replay_trail(trail)
        events = trail.report.schedule
        last_restore = {event[1]: index for index, event in enumerate(events)
                        if event[0] == R}
        (executor,) = executors
        assert len(executor.held) == len(events)
        for index, held in executor.held:
            # a token is held only while this or a later event restores it
            assert held <= {checkpoint_id for checkpoint_id, last
                            in last_restore.items() if last >= index}
        assert executor.tokens == {}
        # one target call per CHECKPOINT and per RESTORE event, as the
        # explorer made them
        assert executor.calls == {
            "checkpoint": sum(1 for event in events if event[0] == C),
            "restore": sum(1 for event in events if event[0] == R)}
        assert executor.calls == {"checkpoint": 399, "restore": 395}
        assert replayed.describe() == (
            "CONFIRMED: abstract states differ: ext4 vs verifs1 "
            "(799 operation(s), 2393 event(s)) [exact]")


# ------------------------------------------------------- observability --
class TestMinimizeReportsHowItRan:
    def test_dfs_trail_is_projected_and_unpolluted(self, tmp_path):
        trail = dfs_trail("truncate-stale-data", tmp_path)
        result = minimize_trail(trail)
        assert result.projected
        # the full schedule was never executed by the minimizer
        assert result.events_executed < trail.events
        assert result.minimized_operations == 3
        assert "live path reproduced" in result.describe()

    def test_minimized_trail_records_the_stats(self, tmp_path):
        trail = dfs_trail("write-hole-stale", tmp_path)
        result = minimize_trail(trail)
        path = result.trail.save(str(tmp_path / "min.trail.json"))
        loaded = Trail.load(path)
        assert loaded.minimization == result.stats()
        assert loaded.minimization["projected"] is True
        assert "probes: live path reproduced" in loaded.describe()

    def test_unminimized_and_older_trails_carry_none(self, tmp_path):
        trail = dfs_trail("extent-boundary-stale", tmp_path)
        assert trail.minimization is None
        document = trail.to_dict()
        del document["minimization"]  # a file written before this field
        assert Trail.from_dict(document).minimization is None

    def test_a_four_key_record_still_loads_and_describes(self, tmp_path):
        # what a minimized trail recorded while a rewound prober served
        # most probes
        trail = dfs_trail("extent-boundary-stale", tmp_path)
        document = trail.to_dict()
        document["minimization"] = {"projected": False, "cached_probes": 2,
                                    "fresh_probes": 395, "polluted_at": 3}
        text = Trail.from_dict(document).describe()
        assert text.endswith(
            "probes: full schedule (live path alone does not reproduce)")

    def test_cli_minimize_prints_probe_line(self, tmp_path, capsys):
        trail = dfs_trail(RESTORE_CORRUPTING, tmp_path)
        source = trail.save(str(tmp_path / "hunt.trail.json"))
        assert main(["minimize", source]) == 0
        output = capsys.readouterr().out
        assert "probes: full schedule" in output

    def test_cli_check_minimize_prints_probe_line(self, tmp_path, capsys):
        code = main(["check", "--fs", "verifs1", "--fs", "verifs2",
                     "--inject-bug", "size-update-on-capacity-only",
                     "--pool", "data-heavy", "--mode", "random", "--seed",
                     "1", "--max-ops", "2000", "--check-every", "200",
                     "--trail-dir", str(tmp_path), "--minimize"])
        assert code == 1
        output = capsys.readouterr().out
        assert "probes: live path reproduced" in output
