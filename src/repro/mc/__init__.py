"""The model-checking engine (the Spin analogue).

Provides what MCFS used Spin for:

* nondeterministic exploration of bounded operation/parameter spaces
  (exhaustive DFS with backtracking, plus randomized walks);
* visited-state matching on *abstract* states (``c_track``'s
  matched/unmatched split), with a hash table that models resize stalls;
* concrete-state checkpoint/restore through pluggable strategies
  (remount, VeriFS ioctls, CRIU-like process snapshot, VM snapshot,
  and the broken disk-only restore of section 3.2);
* a RAM/swap memory model so long runs reproduce Figure 3's dynamics.

Swarm verification -- many diversified explorers, one union -- is
:mod:`repro.dist`: a campaign of seed- and depth-diversified walks over
this engine.
"""

from repro.mc.memory import MemoryModel
from repro.mc.hashtable import VisitedStateTable
from repro.mc.explorer import ExplorationTarget, Explorer, ExplorationStats
from repro.mc.strategies import (
    CheckpointStrategy,
    IoctlStrategy,
    NaiveDiskStrategy,
    ProcessSnapshotStrategy,
    RemountStrategy,
    VMSnapshotStrategy,
)

__all__ = [
    "MemoryModel",
    "VisitedStateTable",
    "Explorer",
    "ExplorationTarget",
    "ExplorationStats",
    "CheckpointStrategy",
    "RemountStrategy",
    "IoctlStrategy",
    "NaiveDiskStrategy",
    "VMSnapshotStrategy",
    "ProcessSnapshotStrategy",
]
