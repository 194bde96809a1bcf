"""repro.dist: real multiprocess exploration.

Where :mod:`repro.mc.swarm` *simulates* a diversified fleet (members run
sequentially, wall-clock accounted as the max member time), this package
runs one for real: a coordinator owns a seed-partitioned frontier of
work units, a :mod:`multiprocessing` fleet executes them with work
stealing, a shared visited-state store collects every worker's
discoveries (published into shared-memory segments, or shipped as
batched insert RPCs over pipes behind a per-worker LRU), and heartbeats
+ lease timeouts make workers disposable -- a SIGKILL'd worker's leased
unit is re-issued and the run still completes with the identical merged
result.

Entry points::

    from repro.dist import CheckSpec, DistributedChecker

    spec = CheckSpec(filesystems=("verifs1", "verifs2"), units=8,
                     unit_operations=400)
    result = DistributedChecker(spec, workers=4).run()
    assert not result.found_discrepancy
    print(result.visited_states, result.speedup)

or, from an MCFS harness built from a spec::

    mcfs = spec.build_mcfs()
    result = mcfs.run_random(max_operations=3200, workers=4)

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
from repro.dist.service import VisitedStateService
from repro.dist.spec import (
    FILESYSTEMS,
    KERNEL_FS,
    STRATEGIES,
    CheckSpec,
    WorkUnit,
    add_filesystem_by_name,
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
    "VisitedStateService",
    "WorkUnit",
    "WorkerConfig",
    "WorkerSummary",
    "add_filesystem_by_name",
    "unique_labels",
]
