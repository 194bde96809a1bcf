"""Additional explorer mechanics, and the swarm (fleet) diversification
rules, not covered by the basic suite."""

import pytest

from repro.clock import SimClock
from repro.dist import CheckSpec, DistributedChecker
from repro.mc.explorer import ExplorationTarget, Explorer
from repro.mc.hashtable import VisitedStateTable
from repro.mc.memory import MemoryModel, OutOfMemoryError


class GridTarget(ExplorationTarget):
    """A 2-D grid walker: actions move right/up, saturating at `limit`.

    right/up commute (independent) -- handy for POR checks too.
    """

    def __init__(self, limit=3, clock=None):
        self.x = 0
        self.y = 0
        self.limit = limit
        self.clock = clock or SimClock()

    def actions(self):
        return ["right", "up"]

    def apply(self, action):
        self.clock.charge(0.001, "op")
        if action == "right":
            self.x = min(self.limit, self.x + 1)
        else:
            self.y = min(self.limit, self.y + 1)

    def checkpoint(self):
        return (self.x, self.y)

    def restore(self, token):
        self.x, self.y = token

    def abstract_state(self):
        return f"{self.x},{self.y}"

    def independent(self, first, second):
        return first != second  # right and up always commute


class TestDFSWithPOR:
    def test_por_preserves_grid_coverage(self):
        full_target = GridTarget()
        full = Explorer(full_target, full_target.clock, max_depth=6).run_dfs()
        por_target = GridTarget()
        por = Explorer(por_target, por_target.clock, max_depth=6).run_dfs(por=True)
        assert por.unique_states == full.unique_states == 16  # 4x4 grid
        assert por.operations < full.operations
        assert por.por_pruned > 0

    def test_por_with_no_independence_changes_nothing(self):
        class Dependent(GridTarget):
            def independent(self, first, second):
                return False

        a, b = Dependent(), Dependent()
        full = Explorer(a, a.clock, max_depth=4).run_dfs()
        por = Explorer(b, b.clock, max_depth=4).run_dfs(por=True)
        assert por.operations == full.operations
        assert por.por_pruned == 0


class TestBudgetsAndHooks:
    def test_max_unique_states_budget(self):
        target = GridTarget(limit=50)
        explorer = Explorer(target, target.clock, max_depth=100,
                            max_unique_states=5)
        stats = explorer.run_dfs()
        assert stats.stopped_reason == "state budget"
        assert stats.unique_states >= 5

    def test_sample_hook_invoked(self):
        calls = []
        target = GridTarget(limit=100)
        explorer = Explorer(target, target.clock, max_depth=50,
                            max_operations=40, sample_every=10,
                            sample_hook=lambda stats: calls.append(stats.operations))
        explorer.run_random()
        assert calls == [10, 20, 30, 40]

    def test_samples_carry_swap_usage(self):
        clock = SimClock()
        memory = MemoryModel(clock=clock, ram_bytes=4, swap_bytes=4000,
                             state_bytes=1)
        target = GridTarget(limit=100, clock=clock)
        visited = VisitedStateTable(memory=memory)
        explorer = Explorer(target, clock, visited=visited, max_depth=50,
                            max_operations=60, sample_every=20)
        stats = explorer.run_random()
        assert stats.samples
        assert stats.samples[-1][2] >= 0  # swap bytes recorded

    def test_out_of_memory_stops_dfs(self):
        clock = SimClock()
        memory = MemoryModel(clock=clock, ram_bytes=3, swap_bytes=2,
                             state_bytes=1)
        target = GridTarget(limit=20, clock=clock)
        visited = VisitedStateTable(memory=memory)
        explorer = Explorer(target, clock, visited=visited, max_depth=30)
        stats = explorer.run_dfs()
        assert stats.stopped_reason == "out of memory"

    def test_elapsed_and_rate_properties(self):
        target = GridTarget()
        explorer = Explorer(target, target.clock, max_depth=4)
        stats = explorer.run_dfs()
        assert stats.elapsed > 0
        assert stats.ops_per_second == pytest.approx(
            stats.operations / stats.elapsed)


class TestRandomWalkEdgeCases:
    def test_no_enabled_actions_stops(self):
        class Dead(GridTarget):
            def actions(self):
                return []

        target = Dead()
        explorer = Explorer(target, target.clock, max_depth=5,
                            max_operations=100)
        stats = explorer.run_random()
        assert stats.stopped_reason == "no enabled actions"
        assert stats.operations == 0

    def test_zero_backtrack_probability_walks_straight(self):
        target = GridTarget(limit=1000)
        explorer = Explorer(target, target.clock, max_depth=10_000,
                            max_operations=50, seed=1)
        explorer.run_random(backtrack_probability=0.0)
        # never backtracked through a revisit: x+y equals operations
        assert target.x + target.y == 50

    def test_high_backtrack_probability_still_terminates(self):
        target = GridTarget(limit=5)
        explorer = Explorer(target, target.clock, max_depth=5,
                            max_operations=100, seed=2)
        stats = explorer.run_random(backtrack_probability=0.95)
        assert stats.operations == 100


class TestSwarmDetails:
    SPEC = CheckSpec(filesystems=("verifs1", "verifs2"), units=3,
                     max_depth=4, unit_operations=40)

    def test_member_depth_diversification(self):
        # the depth rule swarm scripts use: bound + (member index mod 3)
        assert [unit.max_depth for unit in self.SPEC.work_units()] == \
            [4, 5, 6]

    def test_union_at_least_each_member(self):
        result = DistributedChecker(self.SPEC, workers=0).run()
        union = result.table.export_seen()
        assert len(union) == result.visited_states
        for unit in result.unit_results:
            assert unit.unique_states <= len(union)
