#!/usr/bin/env python3
"""Crash-consistency sweeps: why journals (and logs) exist.

Cuts the power after *every* device write of a sync-punctuated workload,
remounts what survived, and checks recovery:

* SimExt4 (write-ahead journal) recovers to a synced-prefix state at
  every single cut point;
* SimExt2 (in-place metadata updates) tears between dependent writes;
* SimJFFS2 (log-structured flash) is never inconsistent -- each append
  is durable on its own, so recovery lands on an operation boundary.

Run:  python examples/crash_consistency.py
"""

from repro import (
    CrashHarness,
    Ext2FileSystemType,
    Ext4FileSystemType,
    Jffs2FileSystemType,
    MTDDevice,
    RAMBlockDevice,
)
from repro.kernel.fdtable import O_CREAT, O_WRONLY


def workload(kernel, base):
    """A few metadata-heavy operations with two sync points."""
    kernel.mkdir(base + "/d")
    fd = kernel.open(base + "/d/f", O_CREAT | O_WRONLY)
    kernel.write(fd, b"A" * 2000)
    kernel.close(fd)
    kernel.sync()
    fd = kernel.open(base + "/g", O_CREAT | O_WRONLY)
    kernel.write(fd, b"B" * 3000)
    kernel.close(fd)
    kernel.truncate(base + "/d/f", 100)
    kernel.unlink(base + "/g")
    kernel.sync()


def main() -> None:
    configurations = [
        ("ext4 (journal)", Ext4FileSystemType,
         lambda clock: RAMBlockDevice(256 * 1024, clock=clock)),
        ("ext2 (in-place)", Ext2FileSystemType,
         lambda clock: RAMBlockDevice(256 * 1024, clock=clock)),
        ("jffs2 (log)", Jffs2FileSystemType,
         lambda clock: MTDDevice(256 * 1024, clock=clock)),
    ]
    print("Power cut after every device write; recover; inspect:\n")
    for label, fstype, device_factory in configurations:
        harness = CrashHarness(fstype, device_factory, workload)
        result = harness.sweep(step=1)
        bad = result.inconsistent_points
        illegal = result.illegal_points
        print(f"  {label:18s} {result.total_writes + 1:3d} cut points | "
              f"{len(bad):2d} inconsistent | "
              f"{len(illegal):2d} consistent-but-unsynced")
        if bad:
            first = next(o for o in result.outcomes
                         if o.cut_after_writes == bad[0])
            print(f"  {'':18s} first tear at write {bad[0]}: "
                  f"{first.problems[0]}")
    print("\nThe journal turns every cut point into a clean, legal recovery;")
    print("in-place updates tear; a log never corrupts but may surface")
    print("operations newer than the last explicit sync (which is fine --")
    print("each append was individually durable).")


if __name__ == "__main__":
    main()
