"""Crash-consistency sweep: the journal, earned empirically.

Not a table in the paper, but the capstone of its substrate argument:
the same simulated stack that reproduces MCFS can answer the
crash-consistency question its related work (FiSC, eXplode, B3) asks.
Power is cut after *every* device write of a sync-punctuated workload;
recovery must be fsck-clean and equal to a synced prefix state.

Result shape: SimExt4's write-ahead journal passes at every cut point;
SimExt2 (in-place metadata updates) tears at several.
"""

import pytest

from conftest import record_result
from repro.fs import Ext2FileSystemType, Ext4FileSystemType, Jffs2FileSystemType
from repro.kernel.fdtable import O_CREAT, O_WRONLY
from repro.mc.crash import CrashHarness
from repro.storage import MTDDevice, RAMBlockDevice


def workload(kernel, base):
    kernel.mkdir(base + "/d")
    fd = kernel.open(base + "/d/f", O_CREAT | O_WRONLY)
    kernel.write(fd, b"A" * 2000)
    kernel.close(fd)
    kernel.sync()
    fd = kernel.open(base + "/g", O_CREAT | O_WRONLY)
    kernel.write(fd, b"B" * 3000)
    kernel.close(fd)
    kernel.truncate(base + "/d/f", 100)
    kernel.sync()
    kernel.unlink(base + "/g")
    kernel.mkdir(base + "/d/sub")
    kernel.sync()


def device(clock):
    return RAMBlockDevice(256 * 1024, clock=clock)


_results = {}


@pytest.mark.parametrize("name,fstype", [
    ("ext4", Ext4FileSystemType),
    ("ext2", Ext2FileSystemType),
    ("jffs2", Jffs2FileSystemType),
])
def test_crash_sweep(benchmark, name, fstype):
    def run():
        if name == "jffs2":
            return CrashHarness(
                fstype, lambda clock: MTDDevice(256 * 1024, clock=clock),
                workload).sweep(step=1)
        return CrashHarness(fstype, device, workload).sweep(step=1)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _results[name] = result
    bad = len(result.inconsistent_points)
    illegal = len(result.illegal_points)
    benchmark.extra_info["cut_points"] = result.total_writes
    benchmark.extra_info["inconsistent"] = bad
    record_result(
        "Crash-consistency sweep (power cut after every device write)",
        f"{name:5s} {result.total_writes + 1:3d} cut points | "
        f"{bad:2d} inconsistent | {illegal:2d} consistent-but-illegal",
    )
    if name == "ext4":
        assert bad == 0 and illegal == 0, (
            "the journal must recover legally at every cut point")
    elif name == "jffs2":
        # log-structured: never inconsistent; mid-sync op boundaries are
        # durable by design, so "illegal" (non-sync-point) states are fine
        assert bad == 0
    else:
        assert bad + illegal > 0, (
            "in-place ext2 should tear somewhere; otherwise the sweep "
            "is not exercising the failure window")
