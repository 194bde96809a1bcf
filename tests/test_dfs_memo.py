"""The DFS loop's successor memo and lazy checkpoints, proven by execution.

``Explorer._dfs`` skips a transition whose successor this run already
knows needs no expansion, and leaves a self-loop child where it is
instead of restoring.  Both lean on the visited table's own assumption
(abstract-equal states have equal futures), so the proof is the same
one the table gets: a naive search that executes *everything* must end
with the same ``{state: shallowest depth}`` map -- which is what
``visited_fingerprint()`` digests.
"""

import hashlib

import pytest

from repro.cli import BUG_PAIRS, hunt_spec
from repro.clock import SimClock
from repro.core.report import RunSummary
from repro.dist.spec import CheckSpec
from repro.mc.explorer import ExplorationStats, ExplorationTarget, Explorer
from repro.mc.hashtable import VisitedStateTable
from repro.mc.memory import MemoryModel
from repro.mc.persistence import load_checker_state
from repro.mc.statestore import make_store
from repro.trail import Trail, minimize_trail, replay_trail
from repro.verifs.common import IOCTL_LIST_SNAPSHOTS

VERIFS_PAIR = CheckSpec(filesystems=("verifs1", "verifs2"), strategy="ioctl")

#: (spec, depth, pinned visited fingerprint or None, pinned states or None)
CONFIGS = {
    "verifs-ioctl-d4": (VERIFS_PAIR, 4,
                        "f54de954b357ad0afd2ef80c73746639", 1305),
    "ext-remount-d2": (CheckSpec(filesystems=("ext2", "ext4"),
                                 strategy="remount"), 2, None, None),
    "verifs2-metadata-d3": (CheckSpec(filesystems=("verifs2", "verifs2"),
                                      pool="metadata-heavy"), 3, None, None),
}


def reference_dfs(target, max_depth, por, resumed_from=()):
    """Checkpoint / apply / hash / restore for every transition, a
    depth-aware dict, classic sleep sets -- and nothing else."""
    seen = dict(resumed_from)

    def record(depth):
        state = target.abstract_state()
        if state in seen and seen[state] <= depth:
            return False
        seen[state] = depth
        return True

    def expand(depth, sleep):
        if depth >= max_depth:
            return
        done = list(sleep)
        for action in target.actions():
            if action in sleep:
                continue
            token = target.checkpoint()
            target.apply(action)
            if record(depth + 1):
                expand(depth + 1, frozenset(
                    other for other in done
                    if por and target.independent(action, other)))
            target.restore(token)
            done.append(action)

    record(0)
    expand(0, frozenset())
    return seen


def explore(spec, depth, por, state_file, **budget):
    """One ``MCFS.run_dfs``; returns (result, visited table, harness)."""
    mcfs = spec.build_mcfs()
    result = mcfs.run_dfs(max_depth=depth, por=por,
                          state_file=str(state_file), **budget)
    return result, load_checker_state(str(state_file)).visited, mcfs


def leaked_snapshots(mcfs):
    """Snapshot keys still pooled in any VeriFS fut."""
    leaked = []
    for fut in mcfs.futs:
        if fut.verifs is not None:
            fd = fut.kernel.open(fut.mountpoint)
            leaked += fut.kernel.ioctl(fd, IOCTL_LIST_SNAPSHOTS)
            fut.kernel.close(fd)
    return leaked


# ------------------------------------------------------------ soundness --
class TestSameVisitedSetAsNaiveSearch:
    @pytest.mark.parametrize("por", [False, True], ids=["full", "por"])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_fingerprint_matches_reference(self, config, por, tmp_path):
        spec, depth, pinned, states = CONFIGS[config]
        result, visited, _ = explore(spec, depth, por, tmp_path / "s.json")
        assert result.stats.stopped_reason == "state space exhausted"
        expected = reference_dfs(spec.build_mcfs()._prepare(), depth, por)
        assert visited.export_seen() == expected
        if pinned is not None:
            assert visited.visited_fingerprint() == pinned
            assert result.unique_states == states

    def test_resumed_run_reaches_the_one_shot_fingerprint(self, tmp_path):
        # a resumed run starts with a populated table and an empty memo
        state_file = tmp_path / "s.json"
        one_shot = explore(VERIFS_PAIR, 3, True, state_file)[1]
        result, resumed, _ = explore(VERIFS_PAIR, 3, True, state_file)
        assert result.unique_states == 0
        assert result.stats.memo_hits == 0  # nothing was expanded twice
        assert resumed.visited_fingerprint() == one_shot.visited_fingerprint()

    def test_resume_after_a_budget_cut_matches_the_reference(self, tmp_path):
        # states a cut run saw but never expanded stay unexpanded on
        # resume (the table's contract, before and after the memo); the
        # naive search resumed from the same table must agree on the rest
        state_file = tmp_path / "s.json"
        first, cut, _ = explore(VERIFS_PAIR, 3, True, state_file,
                                max_unique_states=100)
        assert first.stats.stopped_reason == "state budget"
        expected = reference_dfs(VERIFS_PAIR.build_mcfs()._prepare(), 3,
                                 True, resumed_from=cut.export_seen())
        _, resumed, _ = explore(VERIFS_PAIR, 3, True, state_file)
        assert len(resumed) > len(cut)
        assert resumed.export_seen() == expected


@pytest.fixture
def expansions(monkeypatch):
    """Every (state, depth) ``Explorer._dfs`` expanded, in order."""
    expanded, real = [], Explorer._dfs

    def counting(self, state, depth, sleep):
        if depth < self.max_depth:
            expanded.append((state, depth))
        return real(self, state, depth, sleep)

    monkeypatch.setattr(Explorer, "_dfs", counting)
    return expanded


class TestCounters:
    @pytest.mark.parametrize("por", [False, True], ids=["full", "por"])
    def test_reductions_fire_and_the_pool_balances(self, por, tmp_path,
                                                   expansions):
        result, _, mcfs = explore(VERIFS_PAIR, 4, por, tmp_path / "s.json")
        stats = result.stats
        assert stats.memo_hits > 0 and stats.restores_elided > 0
        assert stats.checkpoints == stats.restores < stats.transitions
        # every action slot of every expansion is accounted for exactly
        # once: executed, answered by the memo, or slept
        slots = len(expansions) * len(mcfs.engine().catalog.operations())
        assert (stats.transitions + stats.memo_hits + stats.por_pruned
                == slots)
        assert len(expansions) > len({state for state, _ in expansions})
        # a restore happens after every moved child and once per node
        # that ends on self-loops; nothing else touches the pool
        assert (stats.restores + stats.restores_elided
                >= stats.transitions)
        assert (stats.por_pruned > 0) == por

    def test_counters_survive_serialisation(self, tmp_path):
        result, _, _ = explore(VERIFS_PAIR, 3, True, tmp_path / "s.json")
        again = ExplorationStats.from_dict(result.stats.to_dict())
        assert again.memo_hits == result.stats.memo_hits
        assert again.restores_elided == result.stats.restores_elided
        summary = RunSummary.from_dict(
            RunSummary.from_result(result).to_dict())
        assert summary.memo_hits == result.stats.memo_hits
        assert (f"{summary.por_pruned} slept (POR), {summary.memo_hits} "
                f"memo hits, {summary.restores_elided} restores elided"
                in summary.render())

    def test_random_walk_reports_no_reductions(self):
        result = VERIFS_PAIR.build_mcfs().run_random(max_operations=60)
        assert result.stats.memo_hits == result.stats.restores_elided == 0
        assert "reductions" not in RunSummary.from_result(result).render()


# ----------------------------------------------------------- bug hunts --
class TestSeededBugsStillFound:
    @pytest.mark.parametrize("por", [False, True], ids=["full", "por"])
    @pytest.mark.parametrize("bug", sorted(BUG_PAIRS))
    def test_found_confirmed_minimised(self, bug, por, tmp_path):
        mcfs = hunt_spec(bug).build_mcfs()
        mcfs.options.trail_dir = str(tmp_path)
        result = mcfs.run_dfs(max_depth=BUG_PAIRS[bug][2],
                              max_operations=400_000, por=por)
        assert result.found_discrepancy and result.trail_path
        trail = Trail.load(result.trail_path)
        assert replay_trail(trail).status == "CONFIRMED"
        minimized = minimize_trail(trail)
        assert minimized.minimized_operations <= 4
        assert replay_trail(minimized.trail).confirmed


# --------------------------------------------------------------- leaks --
class TestNoSnapshotOutlivesItsNode:
    @pytest.mark.parametrize("budget, reason", [
        ({}, "state space exhausted"),
        ({"max_operations": 137}, "operation budget"),
        ({"max_unique_states": 90}, "state budget"),
    ], ids=["exhausted", "op-budget", "state-budget"])
    def test_verifs_pools_are_empty(self, budget, reason, tmp_path):
        result, _, mcfs = explore(VERIFS_PAIR, 3, True,
                                  tmp_path / "s.json", **budget)
        assert result.stats.stopped_reason == reason
        assert result.stats.checkpoints == result.stats.restores
        assert leaked_snapshots(mcfs) == []


class _PoolTarget(ExplorationTarget):
    """A toy target whose tokens are single-use, like ``ioctl_RESTORE``:
    restoring a consumed token raises, and ``live`` is what a stop would
    leak.  Setting a set bit (and ``nop``) is a self-loop; distinct bits
    commute."""

    def __init__(self, bits=3):
        self.bits = frozenset()
        self.live = {}
        self._actions = [("set", bit) for bit in range(bits)] + [("nop",)]

    def actions(self):
        return self._actions

    def apply(self, action):
        if action[0] == "set":
            self.bits |= {action[1]}

    def checkpoint(self):
        token = object()
        self.live[token] = self.bits
        return token

    def restore(self, token):
        self.bits = self.live.pop(token)  # KeyError: token used twice

    def abstract_state(self):
        return ",".join(map(str, sorted(self.bits)))

    def independent(self, first, second):
        return first[0] == second[0] == "set" and first != second


class TestSingleUseTokens:
    @pytest.mark.parametrize("por", [False, True], ids=["full", "por"])
    def test_a_stop_after_any_operation_leaks_nothing(self, por):
        whole = Explorer(_PoolTarget(), SimClock(), max_depth=3)
        whole.run_dfs(por=por)
        assert whole.stats.restores_elided > 0
        # every stop point: between siblings with the node's checkpoint
        # armed (after a self-loop), disarmed (after a moved child), or
        # never taken
        for budget in range(1, whole.stats.operations + 1):
            target = _PoolTarget()
            explorer = Explorer(target, SimClock(), max_depth=3,
                                max_operations=budget)
            stats = explorer.run_dfs(por=por)
            assert stats.operations == budget
            assert target.live == {}
            assert stats.checkpoints == stats.restores

    @pytest.mark.parametrize("por", [False, True], ids=["full", "por"])
    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_toy_search_matches_the_reference(self, depth, por, expansions):
        target = _PoolTarget()
        explorer = Explorer(target, SimClock(), max_depth=depth)
        stats = explorer.run_dfs(por=por)
        assert (explorer.visited.export_seen()
                == reference_dfs(_PoolTarget(), depth, por))
        assert (stats.transitions + stats.memo_hits + stats.por_pruned
                == len(expansions) * len(target.actions()))


# -------------------------------------------------------------- memory --
class _HashedPoolTarget(_PoolTarget):
    """The toy target with md5-sized state hashes, like the engine's,
    and a ``clr`` per bit: a state first met deep is met again shallower
    and re-expanded."""

    def __init__(self, bits=3):
        super().__init__(bits)
        self._actions = self._actions + [("clr", b) for b in range(bits)]

    def apply(self, action):
        if action[0] == "clr":
            self.bits -= {action[1]}
        else:
            super().apply(action)

    def abstract_state(self):
        return hashlib.md5(super().abstract_state().encode()).hexdigest()


class TestMemoIsPaidForAndGivenBack:
    """The memo is exact whatever the visited store is, so it is booked
    to the store's memory model for as long as the run holds it."""

    @pytest.mark.parametrize("store", ["exact", "hc", "bitstate:4096,3"])
    def test_booked_per_expanded_state_released_at_the_end(self, store,
                                                           expansions):
        clock = SimClock()
        memory = MemoryModel(clock, state_bytes=64)
        visited = (VisitedStateTable(memory=memory) if store == "exact"
                   else make_store(store, memory=memory))
        booked, released = [], []
        store_bytes, release_bytes = memory.store_bytes, memory.release_bytes
        memory.store_bytes = lambda n: (booked.append(n), store_bytes(n))
        memory.release_bytes = lambda n: (released.append(n),
                                          release_bytes(n))
        target = _HashedPoolTarget()
        explorer = Explorer(target, clock, visited=visited, max_depth=4)
        explorer.run_dfs(por=True)
        entry = 4 + 32 * (1 + len(target.actions()))
        distinct = len({state for state, _ in expansions})
        assert 1 < distinct < len(expansions)
        assert booked.count(entry) == distinct
        assert released == [distinct * entry]
        assert explorer._memo == {}

    def test_one_string_per_state_not_per_edge(self, monkeypatch):
        held, real = {}, Explorer._dfs

        def spy(self, state, depth, sleep):
            real(self, state, depth, sleep)
            if depth == 0:
                held.update(self._memo)

        monkeypatch.setattr(Explorer, "_dfs", spy)
        Explorer(_HashedPoolTarget(), SimClock(), max_depth=4).run_dfs()
        hashes = list(held) + [child for _, successors in held.values()
                               for child in successors.values()]
        assert len({id(h) for h in hashes}) == len(set(hashes)) < len(hashes)

    def test_a_memo_that_does_not_fit_stops_the_run(self):
        clock = SimClock()
        memory = MemoryModel(clock, ram_bytes=512, swap_bytes=0)
        visited = make_store("bitstate:64,1", memory=memory)
        reserved = memory.stored_bytes
        explorer = Explorer(_HashedPoolTarget(), clock, visited=visited,
                            max_depth=3)
        stats = explorer.run_dfs()
        assert stats.stopped_reason == "out of memory"
        assert explorer._memo == {} and memory.stored_bytes == reserved
