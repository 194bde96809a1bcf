"""MCFS reproduction: model-checking support for file system development.

A from-scratch Python reproduction of *Model-Checking Support for File
System Development* (HotStorage '21): the MCFS model-checking framework,
the VeriFS file systems with checkpoint/restore APIs, and the full
simulated substrate they need (block/MTD devices, a mini-VFS kernel with
genuine caches, ext2/ext4/xfs/jffs2 analogues, and a FUSE stack).

Quick start::

    from repro import MCFS, SimClock, VeriFS1, VeriFS2

    clock = SimClock()
    mcfs = MCFS(clock)
    mcfs.add_verifs("verifs1", VeriFS1())
    mcfs.add_verifs("verifs2", VeriFS2())
    result = mcfs.run_dfs(max_depth=3, max_operations=2000)
"""

from repro.clock import Cost, SimClock
from repro.errors import FsError
from repro.core import (
    MCFS,
    MCFSOptions,
    MCFSResult,
    AbstractionOptions,
    DiscrepancyReport,
    OperationCatalog,
    ParameterPool,
    abstract_state,
    equalize_free_space,
)
from repro.verifs import VeriFS1, VeriFS2, VeriFSBug
from repro.kernel import Kernel
from repro.fs import (
    Ext2FileSystemType,
    Ext4FileSystemType,
    Jffs2FileSystemType,
    XfsFileSystemType,
)
from repro.storage import (
    HDDBlockDevice,
    MTDDevice,
    RAMBlockDevice,
    SSDBlockDevice,
)
from repro.mc import (
    IoctlStrategy,
    NaiveDiskStrategy,
    ProcessSnapshotStrategy,
    RemountStrategy,
    VMSnapshotStrategy,
)
from repro.mc.strategies import NoRemountStrategy, VfsCheckpointStrategy
from repro.core.coverage import CoverageReport, CoverageTracker
from repro.core.voting import Verdict, vote_on_outcomes, vote_on_states
from repro.mc.crash import CrashHarness, CrashOutcome, CrashSweepResult
from repro.storage.fault import PowerCutDevice
from repro.conformance import ConformanceFailure, check_conformance
from repro.workload import PRESETS as WORKLOAD_PRESETS, SequenceGenerator, preset as workload_preset

__version__ = "1.0.0"

__all__ = [
    "MCFS",
    "MCFSOptions",
    "MCFSResult",
    "AbstractionOptions",
    "DiscrepancyReport",
    "OperationCatalog",
    "ParameterPool",
    "abstract_state",
    "equalize_free_space",
    "SimClock",
    "Cost",
    "FsError",
    "Kernel",
    "VeriFS1",
    "VeriFS2",
    "VeriFSBug",
    "Ext2FileSystemType",
    "Ext4FileSystemType",
    "XfsFileSystemType",
    "Jffs2FileSystemType",
    "RAMBlockDevice",
    "HDDBlockDevice",
    "SSDBlockDevice",
    "MTDDevice",
    "RemountStrategy",
    "NoRemountStrategy",
    "VfsCheckpointStrategy",
    "CoverageTracker",
    "CoverageReport",
    "Verdict",
    "vote_on_outcomes",
    "vote_on_states",
    "CrashHarness",
    "CrashOutcome",
    "CrashSweepResult",
    "PowerCutDevice",
    "check_conformance",
    "ConformanceFailure",
    "WORKLOAD_PRESETS",
    "workload_preset",
    "SequenceGenerator",
    "NaiveDiskStrategy",
    "IoctlStrategy",
    "VMSnapshotStrategy",
    "ProcessSnapshotStrategy",
]
