"""Tests for the model-checking engine: memory model, table, explorer."""

import sys

import pytest

from repro.clock import Cost, SimClock
from repro.mc.explorer import ExplorationTarget, Explorer, PropertyViolation
from repro.mc.hashtable import VisitedStateTable
from repro.mc.memory import MemoryModel, OutOfMemoryError


class TestMemoryModel:
    def make(self, clock=None, ram=10, swap=10, state=1):
        return MemoryModel(clock=clock or SimClock(), ram_bytes=ram,
                           swap_bytes=swap, state_bytes=state)

    def test_capacities(self):
        memory = self.make(ram=100, swap=50, state=10)
        assert memory.ram_capacity_states == 10
        assert memory.total_capacity_states == 15

    def test_not_swapping_until_ram_full(self):
        memory = self.make(ram=3, swap=10, state=1)
        for _ in range(3):
            memory.store_state()
        assert not memory.swapping
        memory.store_state()
        assert memory.swapping
        assert memory.swap_used_bytes == 1

    def test_hit_ratio_one_in_ram(self):
        memory = self.make(ram=10, swap=10)
        memory.store_state()
        assert memory.ram_hit_ratio() == 1.0

    def test_hit_ratio_degrades_with_swap(self):
        memory = self.make(ram=2, swap=100, state=1)
        for _ in range(50):
            memory.store_state()
        assert memory.ram_hit_ratio() < 1.0

    def test_locality_raises_hit_ratio(self):
        low = self.make(ram=2, swap=100)
        low.locality = 0.0
        high = self.make(ram=2, swap=100)
        high.locality = 0.95
        for memory in (low, high):
            for _ in range(50):
                memory.store_state()
        assert high.ram_hit_ratio() > low.ram_hit_ratio()

    def test_out_of_memory(self):
        memory = self.make(ram=2, swap=2, state=1)
        for _ in range(4):
            memory.store_state()
        with pytest.raises(OutOfMemoryError):
            memory.store_state()

    def test_swap_touch_costs_more(self):
        clock = SimClock()
        fits = MemoryModel(clock=clock, ram_bytes=1000, swap_bytes=0, state_bytes=1)
        fits.store_state()
        ram_cost = clock.now
        clock2 = SimClock()
        swamped = MemoryModel(clock=clock2, ram_bytes=1, swap_bytes=1000,
                              state_bytes=1, locality=0.0)
        for _ in range(100):
            swamped.store_state()
        assert clock2.now / 100 > ram_cost


class TestVisitedStateTable:
    def test_add_new_true_then_false(self):
        table = VisitedStateTable()
        assert table.add("h1") is True
        assert table.add("h1") is False
        assert len(table) == 1

    def test_contains(self):
        table = VisitedStateTable()
        table.add("h1")
        assert "h1" in table
        assert "h2" not in table

    def test_visit_depth_improvement_triggers_expand(self):
        table = VisitedStateTable()
        assert table.visit("h", depth=3) == (True, True)
        assert table.visit("h", depth=3) == (False, False)
        assert table.visit("h", depth=1) == (False, True)  # shallower: re-expand
        assert table.visit("h", depth=2) == (False, False)

    def test_resize_happens_and_charges(self):
        clock = SimClock()
        memory = MemoryModel(clock=clock, ram_bytes=1 << 30, state_bytes=1)
        table = VisitedStateTable(memory=memory, initial_buckets=8)
        for index in range(20):
            table.add(f"h{index}")
        assert table.stats.resizes == 2  # 8 -> 16 at 7 states, -> 32 at 13
        assert table.buckets == 32
        assert clock.by_category.get("hash-resize", 0) > 0

    def test_duplicate_stats(self):
        table = VisitedStateTable()
        table.add("a")
        table.add("a")
        table.add("a")
        assert table.stats.inserts == 1
        assert table.stats.duplicate_hits == 2


class CounterTarget(ExplorationTarget):
    """A tiny deterministic system: a bounded counter with +1/+2 actions.

    States are 0..limit; action 'a' adds 1, 'b' adds 2 (saturating).
    Perfect for asserting exhaustive coverage.
    """

    def __init__(self, limit=5, clock=None, poison=None):
        self.value = 0
        self.limit = limit
        self.clock = clock or SimClock()
        self.poison = poison  # value that triggers a violation
        self.applied = 0

    def actions(self):
        return ["a", "b"]

    def apply(self, action):
        self.applied += 1
        self.clock.charge(0.001, "op")
        self.value = min(self.limit, self.value + (1 if action == "a" else 2))
        if self.poison is not None and self.value == self.poison:
            raise PropertyViolation(f"hit poison value {self.value}")

    def checkpoint(self):
        return self.value

    def restore(self, token):
        self.value = token

    def abstract_state(self):
        return f"v={self.value}"


class TestExplorerDFS:
    def test_exhaustive_coverage(self):
        target = CounterTarget(limit=5)
        explorer = Explorer(target, target.clock, max_depth=6)
        stats = explorer.run_dfs()
        assert stats.unique_states == 6  # 0..5 inclusive
        assert stats.violation is None
        assert stats.stopped_reason == "state space exhausted"

    def test_depth_bound_limits_reach(self):
        target = CounterTarget(limit=10)
        explorer = Explorer(target, target.clock, max_depth=2)
        stats = explorer.run_dfs()
        # with two +1/+2 steps we can reach at most value 4
        assert stats.unique_states == 5  # 0,1,2,3,4

    def test_violation_halts(self):
        target = CounterTarget(limit=5, poison=3)
        explorer = Explorer(target, target.clock, max_depth=6)
        stats = explorer.run_dfs()
        assert stats.violation is not None
        assert stats.stopped_reason == "property violation"

    def test_operation_budget(self):
        target = CounterTarget(limit=50)
        explorer = Explorer(target, target.clock, max_depth=50, max_operations=10)
        stats = explorer.run_dfs()
        assert stats.operations <= 11
        assert "budget" in stats.stopped_reason

    def test_restore_rewinds_between_branches(self):
        target = CounterTarget(limit=5)
        explorer = Explorer(target, target.clock, max_depth=3)
        explorer.run_dfs()
        assert target.value == 0  # back at the root after full exploration

    def test_time_budget(self):
        target = CounterTarget(limit=500)
        explorer = Explorer(target, target.clock, max_depth=500,
                            sim_time_budget=0.05)
        stats = explorer.run_dfs()
        assert stats.stopped_reason == "time budget"

    def test_checkpoint_restore_balance(self):
        target = CounterTarget(limit=4)
        explorer = Explorer(target, target.clock, max_depth=5)
        stats = explorer.run_dfs()
        assert stats.checkpoints == stats.restores

    def test_dfs_deeper_than_the_recursion_limit(self):
        # the frontier is data, not the interpreter's call stack
        depth = sys.getrecursionlimit() + 100
        target = CounterTarget(limit=depth)
        target.actions = lambda: ["a"]
        stats = Explorer(target, target.clock, max_depth=depth).run_dfs()
        assert stats.stopped_reason == "state space exhausted"
        assert stats.unique_states == depth + 1


class TestExplorerRandom:
    def test_same_seed_same_walk(self):
        results = []
        for _ in range(2):
            target = CounterTarget(limit=8)
            explorer = Explorer(target, target.clock, max_depth=6,
                                max_operations=60, seed=7)
            stats = explorer.run_random()
            results.append((stats.operations, stats.unique_states, target.value))
        assert results[0] == results[1]

    def test_different_seed_different_walk(self):
        outcomes = set()
        for seed in range(5):
            target = CounterTarget(limit=30)
            explorer = Explorer(target, target.clock, max_depth=10,
                                max_operations=40, seed=seed)
            explorer.run_random()
            outcomes.add(target.value)
        assert len(outcomes) > 1

    def test_violation_halts_random(self):
        target = CounterTarget(limit=10, poison=4)
        explorer = Explorer(target, target.clock, max_depth=8,
                            max_operations=10_000, seed=3)
        stats = explorer.run_random()
        assert stats.violation is not None

    def test_samples_collected(self):
        target = CounterTarget(limit=100)
        explorer = Explorer(target, target.clock, max_depth=10,
                            max_operations=100, seed=1, sample_every=10)
        stats = explorer.run_random()
        assert len(stats.samples) == 10
        times = [sample[0] for sample in stats.samples]
        assert times == sorted(times)

    def test_ops_per_second_positive(self):
        target = CounterTarget(limit=10)
        explorer = Explorer(target, target.clock, max_depth=5,
                            max_operations=50, seed=2)
        stats = explorer.run_random()
        assert stats.ops_per_second > 0
