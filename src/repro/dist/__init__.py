"""repro.dist: the campaign runner -- swarm verification, for real.

A campaign is a :class:`CheckSpec`: which file systems, and how many
seed-, depth- and profile-diversified work units (the swarm's members)
to explore them with.  :class:`DistributedChecker` is the only thing
that runs one.  A coordinator owns the seed-partitioned frontier, a
:mod:`multiprocessing` fleet executes units with work stealing, a shared
visited-state store collects every worker's discoveries (shipped as
packed record batches over pipes behind a per-worker LRU), and
heartbeats + lease timeouts make workers disposable -- a SIGKILL'd
worker's leased unit is re-issued and the run still completes with the
identical merged result.  ``workers=0`` is the
same campaign with nobody to lease to: every unit runs in the calling
process, and nothing is forked or piped.

Entry point::

    from repro.dist import CheckSpec, DistributedChecker

    spec = CheckSpec(filesystems=("verifs1", "verifs2"), units=8,
                     unit_operations=400)
    result = DistributedChecker(spec, workers=4).run()
    assert not result.found_discrepancy
    print(result.visited_states, result.speedup)

See ``docs/distributed.md`` for the wire protocol and the determinism
argument.
"""

from repro.dist.client import LRUSet, ShippingVisitedTable
from repro.dist.coordinator import (
    DistResult,
    DistributedChecker,
    WorkerSummary,
)
from repro.dist.protocol import UnitResult
from repro.dist.spec import (
    FILESYSTEMS,
    KERNEL_FS,
    STRATEGIES,
    CheckSpec,
    WorkUnit,
    unique_labels,
)
from repro.dist.worker import WorkerConfig

__all__ = [
    "CheckSpec",
    "DistResult",
    "DistributedChecker",
    "FILESYSTEMS",
    "KERNEL_FS",
    "LRUSet",
    "STRATEGIES",
    "ShippingVisitedTable",
    "UnitResult",
    "WorkUnit",
    "WorkerConfig",
    "WorkerSummary",
    "unique_labels",
]
