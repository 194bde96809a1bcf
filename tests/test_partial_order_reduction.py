"""Tests for sleep-set partial-order reduction (§2)."""

import pytest

from repro import MCFS, MCFSOptions, SimClock, VeriFS1, VeriFS2, VeriFSBug
from repro.cli import BUG_PAIRS, hunt_spec
from repro.core.ops import Operation, OperationCatalog, ParameterPool
from repro.dist.spec import CheckSpec


class TestIndependenceRelation:
    cat = OperationCatalog

    def test_disjoint_paths_commute(self):
        a = Operation("create_file", ("/f0", 0o644))
        b = Operation("mkdir", ("/d1", 0o755))
        assert self.cat.independent(a, b)

    def test_same_path_conflicts(self):
        a = Operation("write_file", ("/f0", 0, 512, 65))
        b = Operation("truncate", ("/f0", 100))
        assert not self.cat.independent(a, b)

    def test_ancestor_conflicts(self):
        a = Operation("mkdir", ("/d0", 0o755))
        b = Operation("create_file", ("/d0/f2", 0o644))
        assert not self.cat.independent(a, b)
        assert not self.cat.independent(b, a)

    def test_rename_touches_both_ends(self):
        a = Operation("rename", ("/f0", "/f1"))
        assert not self.cat.independent(a, Operation("unlink", ("/f0",)))
        assert not self.cat.independent(a, Operation("unlink", ("/f1",)))
        assert self.cat.independent(a, Operation("mkdir", ("/d0", 0o755)))

    def test_relation_is_symmetric(self):
        operations = OperationCatalog(include_extended=True).operations()
        for a in operations[:12]:
            for b in operations[:12]:
                assert self.cat.independent(a, b) == self.cat.independent(b, a)

    def test_prefix_name_is_not_ancestor(self):
        # /f0 vs /f01: name-prefix but not path-ancestor -> independent
        a = Operation("unlink", ("/f0",))
        b = Operation("unlink", ("/f01",))
        assert self.cat.independent(a, b)

    def test_symlink_touches_only_the_link_path(self):
        """Regression: symlink creation stores the target as an
        uninterpreted string -- it must not be reported as touched, or
        symlink("/f0", "/sym0") wrongly serialises against every /f0
        operation and sleep-set reductions shrink."""
        link = Operation("symlink", ("/f0", "/sym0"))
        assert self.cat.paths_touched(link) == ("/sym0",)
        # commutes with operations on the *target* path ...
        assert self.cat.independent(link, Operation("unlink", ("/f0",)))
        assert self.cat.independent(
            link, Operation("write_file", ("/f0", 0, 512, 65)))
        # ... but still conflicts with operations on the link path
        assert not self.cat.independent(link, Operation("unlink", ("/sym0",)))

    def test_open_flags_touches_its_path(self):
        op = Operation("open_flags", ("/f0", 0o100 | 0o200))
        assert self.cat.paths_touched(op) == ("/f0",)
        assert not self.cat.independent(op, Operation("unlink", ("/f0",)))
        assert self.cat.independent(op, Operation("mkdir", ("/d1", 0o755)))


class TestNameSymmetries:
    """The sibling-name swaps the action set is closed under."""

    def test_default_catalog_swaps_f0_and_f1(self):
        catalog = OperationCatalog(include_extended=False)
        assert catalog.name_symmetries() == (("/f0", "/f1"),)

    def test_extended_operations_break_it(self):
        # link and setxattr name /f0 only, the symlink target is /f0
        assert OperationCatalog(include_extended=True).name_symmetries() == ()

    @pytest.mark.parametrize("targets, expected", [
        (("/f0", "/f1"), ()),
        (("/g",), (("/f0", "/f1"),)),
    ], ids=["targets-name-the-pair", "target-elsewhere"])
    def test_a_name_carried_as_data_breaks_the_pair(self, targets, expected):
        # renames, link and setxattr are closed under /f0 <-> /f1 here, so
        # the symlink targets alone decide: a target is data, not a path,
        # and a state keeps it while the tree is renamed
        pool = ParameterPool(
            file_paths=("/g", "/f0", "/f1"),
            rename_extra=(("/g", "/f1"), ("/f1", "/g")),
            symlink_targets=targets)
        catalog = OperationCatalog(pool, include_extended=True)
        assert catalog.name_symmetries() == expected

    @pytest.mark.parametrize("bug", sorted(BUG_PAIRS))
    def test_every_hunt_has_the_pair(self, bug):
        catalog = hunt_spec(bug).build_mcfs().engine().catalog
        assert catalog.name_symmetries() == (("/f0", "/f1"),)


class TestTwinStates:
    VERIFS_PAIR = CheckSpec(filesystems=("verifs1", "verifs2"),
                            strategy="ioctl")

    def _state_after(self, operations):
        """(target, mcfs) after ``operations`` and one state hash."""
        mcfs = self.VERIFS_PAIR.build_mcfs()
        target = mcfs._prepare()
        for operation in operations:
            target.apply(operation)
        target.abstract_state()
        return target, mcfs

    def test_twin_is_the_mirrored_runs_state_and_costs_no_syscall(self):
        target, mcfs = self._state_after([
            Operation("create_file", ("/f0", 0o644)),
            Operation("write_file", ("/f1", 1000, 512, 0x41))])
        counts = [(fut.kernel.syscall_count,
                   fut.verifs.connection.requests_sent) for fut in mcfs.futs]
        twins = target.twin_states()
        assert [(fut.kernel.syscall_count,
                 fut.verifs.connection.requests_sent)
                for fut in mcfs.futs] == counts
        # the executed equivalence check: running the mirrored operations
        # reaches the twin key
        mirror, _ = self._state_after([
            Operation("create_file", ("/f1", 0o644)),
            Operation("write_file", ("/f0", 1000, 512, 0x41))])
        assert twins == (mirror.abstract_state(),)

    def test_a_self_symmetric_state_has_no_twin(self):
        target, _ = self._state_after([
            Operation("create_file", ("/f0", 0o644)),
            Operation("create_file", ("/f1", 0o644))])
        assert target.twin_states() == ()
        target, _ = self._state_after([Operation("mkdir", ("/d0", 0o755))])
        assert target.twin_states() == ()


class TestCommutationSoundness:
    """Operations declared independent must actually commute: executing
    both orders from the same state must land in the same abstract state
    (the soundness condition sleep-set POR relies on)."""

    @staticmethod
    def _fresh_fut():
        from repro.core.futs import make_verifs_fut

        clock = SimClock()
        return make_verifs_fut("v", VeriFS2(), clock)

    @staticmethod
    def _state_after(catalog, first, second):
        from repro.core.abstraction import AbstractionOptions

        fut = TestCommutationSoundness._fresh_fut()
        # a populated starting state so most operations act on real files
        for op in (Operation("create_file", ("/f0", 0o644)),
                   Operation("write_file", ("/f0", 0, 512, 65)),
                   Operation("create_file", ("/f1", 0o644)),
                   Operation("mkdir", ("/d0", 0o755)),
                   Operation("create_file", ("/d0/f2", 0o644))):
            catalog.execute(fut, op)
        catalog.execute(fut, first)
        catalog.execute(fut, second)
        return fut.abstract_state(AbstractionOptions())

    def test_independent_pairs_commute(self):
        catalog = OperationCatalog(include_extended=True)
        operations = catalog.operations()
        checked = 0
        for i, a in enumerate(operations):
            for b in operations[i + 1:]:
                if not catalog.independent(a, b):
                    continue
                checked += 1
                forward = self._state_after(catalog, a, b)
                backward = self._state_after(catalog, b, a)
                assert forward == backward, (a.describe(), b.describe())
        assert checked > 50  # the relation must not be vacuously empty

    def test_symlink_target_pairs_commute(self):
        """The pairs the symlink paths_touched fix newly declares
        independent really do commute."""
        catalog = OperationCatalog(include_extended=True)
        link = Operation("symlink", ("/f0", "/sym0"))
        for other in (Operation("unlink", ("/f0",)),
                      Operation("truncate", ("/f0", 100)),
                      Operation("write_file", ("/f0", 0, 512, 65))):
            assert catalog.independent(link, other)
            assert (self._state_after(catalog, link, other)
                    == self._state_after(catalog, other, link))


def _run(por: bool, bug=None, depth: int = 3):
    clock = SimClock()
    mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False))
    mcfs.add_verifs("v1", VeriFS1())
    mcfs.add_verifs("v2", VeriFS2(bugs=[bug] if bug else []))
    return mcfs.run_dfs(max_depth=depth, max_operations=500_000, por=por)


class TestPORSearch:
    def test_preserves_state_coverage(self):
        full = _run(por=False)
        reduced = _run(por=True)
        assert reduced.unique_states == full.unique_states
        assert full.stats.stopped_reason == reduced.stats.stopped_reason

    def test_executes_fewer_transitions(self):
        full = _run(por=False)
        reduced = _run(por=True)
        assert reduced.operations < full.operations
        assert reduced.stats.por_pruned > 0

    def test_full_dfs_prunes_nothing(self):
        full = _run(por=False)
        assert full.stats.por_pruned == 0

    def test_still_finds_bugs(self):
        result = _run(por=True, bug=VeriFSBug.WRITE_HOLE_STALE)
        assert result.found_discrepancy
        assert result.report.failing_operation.operation.name == "write_file"

    def test_por_is_cheaper_in_sim_time_too(self):
        full = _run(por=False)
        reduced = _run(por=True)
        assert reduced.sim_time < full.sim_time
