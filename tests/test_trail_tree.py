"""The checkpoint tree under trail minimization.

A schedule is a tree of ``CHECKPOINT id ... RESTORE id`` episodes, and
the minimizer treats it as one: live-path projection first, ddmin over
episode atoms second, a prefix cache whose entries carry the checkpoint
bindings valid at that prefix.  These tests pin each piece down by
*executing* it against the ground truth -- a freshly built harness --
rather than by argument.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import BUG_PAIRS, hunt_spec, main
from repro.dist.spec import CheckSpec
from repro.mc import trace
from repro.trail import Trail, TrailExecutor, minimize_trail, replay_trail
from repro.trail.capture import signature
from repro.trail.minimize import (
    _FreshProber,
    _HybridTest,
    _Prober,
    _Reduction,
)

C, R, OP, CHECK = trace.CHECKPOINT, trace.RESTORE, trace.OP, trace.CHECK

#: the one seeded bug that corrupts restore itself (ghost dcache entries
#: survive every ioctl rollback): a long-lived prober *must* drift
RESTORE_CORRUPTING = "missing-cache-invalidation"


def dfs_trail(bug, tmp_path, por=False):
    """The trail of a ``repro bugdemo``-style depth-bounded DFS hunt."""
    mcfs = hunt_spec(bug).build_mcfs()
    mcfs.options.trail_dir = str(tmp_path)
    result = mcfs.run_dfs(max_depth=BUG_PAIRS[bug][2],
                          max_operations=400_000, por=por)
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


# ------------------------------------------ prober vs fresh cross-check --
def cross_checked_ddmin(trail):
    """ddmin over the *full* schedule (no projection, so the prefix cache
    and in-candidate RESTOREs do real work) with every probe executed on
    both the cached prober and a fresh harness.  Fresh drives; returns
    ``(probes, contradictions)``."""
    expected = trail.signature()
    events = trace.normalize(list(trail.report.schedule))
    prober = _Prober(trail.spec)
    fresh = _FreshProber(trail.spec)
    contradictions = []

    def verdict(result):
        index, violation = result
        report = getattr(violation, "report", None)
        return index, (signature(report) if report is not None else None)

    def failing(candidate):
        truth = verdict(fresh.run(candidate))
        claim = verdict(prober.run(candidate))
        if claim != truth:
            contradictions.append((fresh.probes, claim, truth))
        if truth[1] == expected:
            return candidate[:truth[0] + 1]
        return None

    assert failing(events) is not None
    reduction = _Reduction(events, failing)
    reduction.run()
    assert trace.count_operations(reduction.schedule()) <= 4
    return fresh.probes, contradictions


class TestProberMatchesFreshHarness:
    @pytest.mark.parametrize("bug", sorted(set(BUG_PAIRS)
                                           - {RESTORE_CORRUPTING}))
    def test_never_disagrees_on_exact_restore_bugs(self, bug, tmp_path):
        # on the parent, a cache hit skipped the prefix's CHECKPOINTs and
        # a later RESTORE found a token some *earlier* candidate took:
        # first contradiction at probe 35-49 on the four long trails
        probes, contradictions = cross_checked_ddmin(dfs_trail(bug, tmp_path))
        assert probes >= 5
        assert contradictions == []

    def test_restore_corrupting_bug_is_the_genuine_contradiction(
            self, tmp_path):
        _probes, contradictions = cross_checked_ddmin(
            dfs_trail(RESTORE_CORRUPTING, tmp_path))
        assert contradictions, (
            "the ghost-dcache bug survives every rollback: a long-lived "
            "harness cannot agree with a fresh one")

    def test_restore_after_cache_hit_finds_this_candidates_checkpoint(self):
        # the stale-binding bug in three probes on a bug-free pair: X
        # caches the prefix [C0 a]; Y re-takes id 0 in a different state
        # (after b); Z hits X's cached prefix -- skipping its C0 -- and
        # then restores 0, which must be X's pristine state, not Y's
        spec = BUG_FREE_PAIRS["verifs-ioctl"]
        actions = spec.build_mcfs().engine().catalog.operations()
        a, b = (OP, actions[0]), (OP, actions[1])  # create /f0, create /f1
        prober = _Prober(spec, checkpoint_every=2)
        prober.run([(C, 0), a, b, (CHECK,)])
        prober.run([b, (C, 0), a])
        schedule = [(C, 0), a, (R, 0), (CHECK,)]
        assert prober.run(schedule) == (len(schedule), None)
        assert prober.cache_hits == 1
        engine = prober.executor.engine
        digests = [fut.abstract_state(engine.options) for fut in engine.futs]
        assert (digests, []) == _end_state(spec, schedule)

    def test_cache_entry_restores_its_own_bindings(self, tmp_path):
        trail = dfs_trail("size-update-on-capacity-only", tmp_path)
        events = trace.normalize(list(trail.report.schedule))
        prober = _Prober(trail.spec, checkpoint_every=8)
        prober.run(events)
        snapshots = list(prober._cache.items())
        assert snapshots
        for (length, _digest), (_token, log, bindings) in snapshots:
            prefix = events[:length]
            taken = {event[1] for event in prefix if event[0] == C}
            assert set(bindings) == taken
            assert len(log) == len(
                [e for e in trace.live_path(prefix) if e[0] == OP])
        # a different candidate sharing only a prefix starts from it
        prober.run(events[:20] + events[-1:])
        assert prober.cache_hits == 1


# ------------------------------------------------ pollution discovery --
class _Scripted:
    """A prober stand-in answering from a script keyed by candidate."""

    def __init__(self, answers):
        self.answers = answers
        self.probes = 0
        self.events_executed = 0

    def run(self, events):
        self.probes += 1
        return self.answers(events)


class _Violation(Exception):
    def __init__(self, report):
        super().__init__("scripted")
        self.report = report


class TestVerdictSurvivesPollutionDiscovery:
    def test_candidate_is_rejudged_fresh_on_the_spot(self, tmp_path):
        trail = dfs_trail("extent-boundary-stale", tmp_path)
        ours = _Violation(trail.report)
        candidate = [(OP, "a"), (OP, "b"), (OP, "c"), (CHECK,)]
        # the polluted prober fires early, at "b"; the truth is that the
        # candidate fails at its final CHECK and its 2-event head is clean
        prober = _Scripted(lambda events: (1, ours))
        fresh = _Scripted(lambda events: (3, ours) if len(events) == 4
                          else (len(events), None))
        test = _HybridTest(trail.spec, trail.signature(), prober, None)
        test.fresh = fresh
        assert test(candidate) == candidate
        assert test.polluted_at == 2  # prober probe + rejected confirmation
        # ... and from here on everything runs fresh
        assert test(candidate) == candidate
        assert prober.probes == 1

    @pytest.mark.parametrize("por", [False, True])
    def test_restore_corrupting_dfs_trail_minimizes(self, por, tmp_path):
        # the live-path probe runs first and dirties the prober; the
        # full schedule must still be recognised as reproducing (the
        # replay just CONFIRMED it) instead of being refused as flaky
        trail = dfs_trail(RESTORE_CORRUPTING, tmp_path, por=por)
        assert replay_trail(trail).confirmed
        result = minimize_trail(trail)
        assert not result.projected
        assert result.polluted_at is not None
        assert result.fresh_probes > result.cached_probes
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
        assert "POLLUTED" not in text

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
    """Which CONFIRMED trails are ``[exact]`` and which ``[signature]``."""

    def test_ioctl_dfs_trail_drifts_in_sim_time_only(self, tmp_path):
        # replay restores through restore_reusable, which re-checkpoints
        # after every IOCTL_RESTORE: one more ioctl per restore than the
        # explorer charged, and nothing else different
        trail = dfs_trail("write-hole-stale", tmp_path)
        replayed = replay_trail(trail)
        assert replayed.confirmed and not replayed.exact
        assert replayed.describe().endswith("[signature]")
        recorded, again = trail.report.to_dict(), replayed.report.to_dict()
        assert {key for key in recorded if key != "schedule"
                and recorded[key] != again[key]} == {"sim_time"}
        assert again["sim_time"] > recorded["sim_time"]

    def test_minimized_trail_replays_exact(self, tmp_path):
        # its report was recorded by the replayer's own executor
        minimized = minimize_trail(dfs_trail(RESTORE_CORRUPTING, tmp_path))
        tags = [event[0] for event in minimized.trail.report.schedule]
        assert R in tags
        replayed = replay_trail(minimized.trail)
        assert replayed.confirmed and replayed.exact
        assert replayed.describe().endswith("[exact]")


# ------------------------------------------------------- observability --
class TestMinimizeReportsHowItRan:
    def test_dfs_trail_is_projected_and_unpolluted(self, tmp_path):
        trail = dfs_trail("truncate-stale-data", tmp_path)
        result = minimize_trail(trail)
        assert result.projected
        assert result.polluted_at is None
        assert result.cached_probes + result.fresh_probes == result.probes
        # the full schedule was never executed by the minimizer
        assert result.events_executed < trail.events
        assert result.minimized_operations == 3
        text = result.describe()
        assert "live path reproduced" in text
        assert "POLLUTED" not in text

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

    def test_cli_minimize_prints_probe_line(self, tmp_path, capsys):
        trail = dfs_trail(RESTORE_CORRUPTING, tmp_path)
        source = trail.save(str(tmp_path / "hunt.trail.json"))
        assert main(["minimize", source]) == 0
        output = capsys.readouterr().out
        assert "probes: full schedule" in output
        assert "POLLUTED at probe" in output

    def test_cli_check_minimize_prints_probe_line(self, tmp_path, capsys):
        code = main(["check", "--fs", "verifs1", "--fs", "verifs2",
                     "--inject-bug", "size-update-on-capacity-only",
                     "--pool", "data-heavy", "--mode", "random", "--seed",
                     "1", "--max-ops", "2000", "--check-every", "200",
                     "--trail-dir", str(tmp_path), "--minimize"])
        assert code == 1
        output = capsys.readouterr().out
        assert "probes: live path reproduced" in output
        assert "prober never contradicted a fresh harness" in output
