"""Section 6: MCFS finds the four historical VeriFS bugs.

Paper: while developing VeriFS1 (checked against Ext4), MCFS found the
truncate bug after over 9K operations and the cache-incoherency bug after
about 12K; while developing VeriFS2 (checked against VeriFS1), the
write-hole bug after over 900K operations and the size-update bug after
over 1.2M.

Absolute counts depend on the exploration order and pool (the authors
ran randomized engines for days); the reproduced *shape* is: every bug
is found, each with a precise replayable report naming the failing
operation, and the fixed versions pass the identical search.
"""

import pytest

from conftest import record_result
from repro import (
    Ext4FileSystemType,
    MCFS,
    MCFSOptions,
    RAMBlockDevice,
    SimClock,
    VeriFS1,
    VeriFS2,
    VeriFSBug,
)
from repro.core.integrity import DiscrepancyError

BUG_CASES = [
    # (bug, buggy fs phase, paper ops, expected failing op name or None)
    (VeriFSBug.TRUNCATE_STALE_DATA, "verifs1-vs-ext4", "~9K", "truncate", 4),
    (VeriFSBug.MISSING_CACHE_INVALIDATION, "verifs1-vs-ext4", "~12K", None, 3),
    (VeriFSBug.WRITE_HOLE_STALE, "verifs2-vs-verifs1", "~900K", "write_file", 3),
    (VeriFSBug.SIZE_UPDATE_ON_CAPACITY_ONLY, "verifs2-vs-verifs1", "~1.2M", "write_file", 3),
]


def build(bug):
    clock = SimClock()
    mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False))
    if bug in (VeriFSBug.TRUNCATE_STALE_DATA, VeriFSBug.MISSING_CACHE_INVALIDATION):
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_verifs("verifs1", VeriFS1(bugs=[bug]))
    else:
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("verifs2", VeriFS2(bugs=[bug]))
    return mcfs


def state_moving(bug, report):
    """How many entries of the report's operation log changed the
    abstract state, observed by re-running the log on a fresh harness
    (the failing operation counts: the divergence it causes is a move)."""
    target = build(bug)._prepare()
    before, moving = target.abstract_state(), 0
    for logged in report.operation_log:
        try:
            target.apply(logged.operation)
            after = target.abstract_state()
        except DiscrepancyError:
            return moving + 1
        moving += after != before
        before = after
    return moving


@pytest.mark.parametrize("bug,phase,paper_ops,failing_op,depth", BUG_CASES,
                         ids=[case[0].value for case in BUG_CASES])
def test_bug_discovered(benchmark, bug, phase, paper_ops, failing_op, depth):
    def run():
        mcfs = build(bug)
        return mcfs.run_dfs(max_depth=depth, max_operations=400_000)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.found_discrepancy, f"{bug.value} was not found"
    report = result.report
    benchmark.extra_info["ops_to_detection"] = result.operations
    record_result(
        "Section 6: bug discovery (operations until detection)",
        f"{bug.value:32s} {phase:20s} found after {result.operations:6d} ops "
        f"(paper: {paper_ops}) | failing op: "
        f"{report.failing_operation.operation.describe()}",
    )
    # precise report: the failing operation is the expected one
    if failing_op is not None:
        assert report.failing_operation.operation.name == failing_op
    # the sequence is short enough to debug by hand, like the paper's
    # logs: one operation per level of the search moved the state, the
    # last of them the failing one ...
    log, moving = report.operation_log, state_moving(bug, report)
    assert moving <= depth
    # ... and every other entry is a no-op (EEXIST, ENOENT, a truncate to
    # the current size) that one of those levels ran before its moving
    # sibling and, being a self-loop, did not roll back
    actions = len(build(bug).engine().catalog.operations())
    assert len(log) - moving <= depth * (actions - 1)
    record_result(
        "Section 6: bug discovery (operations until detection)",
        f"{'':32s} {'':20s} report log: {len(log)} entries, "
        f"{moving} moved the state",
    )


@pytest.mark.parametrize("phase", ["verifs1-vs-ext4", "verifs2-vs-verifs1"])
def test_fixed_versions_pass(benchmark, phase):
    """After fixing each bug, the identical search finds nothing."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    clock = SimClock()
    mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False))
    if phase == "verifs1-vs-ext4":
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_verifs("verifs1", VeriFS1())
    else:
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("verifs2", VeriFS2())
    result = mcfs.run_dfs(max_depth=3, max_operations=400_000)
    assert not result.found_discrepancy, str(result.report)
    record_result(
        "Section 6: bug discovery (operations until detection)",
        f"{'(fixed) ' + phase:52s} clean after {result.operations:6d} ops",
    )
