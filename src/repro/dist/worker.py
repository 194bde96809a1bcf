"""Worker process: runs leased work units and streams its discoveries.

A worker is a plain loop -- request a unit, run it, report it -- with
two side channels woven through the explorer's sample hook (which fires
every ``heartbeat_operations`` explored operations):

* **heartbeats** keep the coordinator's lease on the current unit alive;
* **visited batches** flush locally-new ``(record key, depth)`` records
  to the shared store as one packed batch (suppressed by the exact LRU
  of already-shipped keys).

A SIGKILL'd worker loses nothing that matters: every flushed batch is
already in the shared table, and the re-issued unit re-runs
deterministically.

The same unit runner also serves the coordinator's in-process path (a
fleet of zero workers, or one whose workers have all died) through the
:class:`ResultSink` indirection: a :class:`PipeSink` speaks the wire
protocol, a :class:`LocalSink` calls the service directly.
``run_unit`` has no other caller: every campaign, served or not, is a
:class:`~repro.dist.coordinator.DistributedChecker`.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from repro.dist import realtime
from repro.dist.client import LRUSet, ShippingVisitedTable
from repro.dist.protocol import (
    Heartbeat,
    Hello,
    NoMoreWork,
    RecordBatch,
    Shutdown,
    UnitDone,
    UnitResult,
    Wait,
    WorkGrant,
    WorkRequest,
)
from repro.dist.service import VisitedStateService
from repro.dist.spec import CheckSpec, WorkUnit
from repro.mc.hashtable import Record
from repro.mc.records import pack_records, parse_store_spec
from repro.mc.statestore import make_store


@dataclass
class WorkerConfig:
    """Tunables every worker receives at spawn time."""

    #: sample-hook period: heartbeat + batch flush every N operations
    heartbeat_operations: int = 100
    #: visited-batch size before an eager flush
    batch_size: int = 64
    #: fault injection: SIGKILL ourselves after this many operations
    #: (counted across the whole worker session); None disables
    chaos_kill_after_operations: Optional[int] = None


class ResultSink:
    """Where a running unit sends its side-channel traffic."""

    def ship_batch(self, records: List[Record]) -> None:
        raise NotImplementedError

    def heartbeat(self, unit_index: int, operations: int) -> None:
        raise NotImplementedError


class LocalSink(ResultSink):
    """In-process sink: feed a service directly, no wire.

    Serves the coordinator when there is no live worker to run a unit;
    ``on_heartbeat`` is the coordinator's progress callback, so inline
    units report like leased ones.
    """

    def __init__(self, service: VisitedStateService,
                 on_heartbeat: Optional[Callable[[int, int], None]] = None):
        self.service = service
        self.on_heartbeat = on_heartbeat

    def ship_batch(self, records: List[Record]) -> None:
        self.service.insert_batch(records)

    def heartbeat(self, unit_index: int, operations: int) -> None:
        if self.on_heartbeat is not None:
            self.on_heartbeat(unit_index, operations)


class PipeSink(ResultSink):
    """Speaks the wire protocol over the worker's pipe connection:
    every batch ships as one packed :class:`RecordBatch`."""

    def __init__(self, conn, worker_id: str, key_bytes: int):
        self.conn = conn
        self.worker_id = worker_id
        self.key_bytes = key_bytes

    def ship_batch(self, records: List[Record]) -> None:
        self.conn.send(RecordBatch(self.worker_id, self.key_bytes,
                                   pack_records(records, self.key_bytes)))

    def heartbeat(self, unit_index: int, operations: int) -> None:
        self.conn.send(Heartbeat(self.worker_id, unit_index, operations))


def run_unit(spec: CheckSpec, unit: WorkUnit, worker_id: str,
             config: WorkerConfig, sink: ResultSink,
             shipped_lru: Optional[LRUSet] = None,
             session_operations: int = 0) -> UnitResult:
    """Execute one work unit to completion; deterministic in isolation.

    ``session_operations`` is the operation count the worker completed in
    earlier units (chaos fault injection triggers on the session total).
    """
    # per-unit input diversification: the unit explores with its own
    # profile (a function of the unit index only, CheckSpec.unit_profile)
    mcfs = replace(spec, input_profile=unit.input_profile).build_mcfs()
    profile = None
    ship = sink.ship_batch
    if mcfs.options.profile:
        from repro.mc.perf import CostProfile

        profile = CostProfile()

        def ship(entries, _ship=sink.ship_batch, _profile=profile):
            return _profile.timed("ship", _ship, entries)

    # the local store mirrors the service's spec (same kind, same seed),
    # so the record keys the two sides derive agree
    table = ShippingVisitedTable(
        ship=ship,
        local=make_store(spec.state_store, seed=spec.base_seed),
        shipped_lru=shipped_lru,
        batch_size=config.batch_size,
    )

    def tick(stats) -> None:
        if (config.chaos_kill_after_operations is not None
                and session_operations + stats.operations
                >= config.chaos_kill_after_operations):
            os.kill(os.getpid(), signal.SIGKILL)  # fault injection: die hard
        table.flush()
        sink.heartbeat(unit.index, stats.operations)

    wall_start = realtime.now()
    result = mcfs.run_random(
        max_operations=unit.max_operations,
        seed=unit.seed,
        max_depth=unit.max_depth,
        backtrack_probability=unit.backtrack_probability,
        sample_every=config.heartbeat_operations,
        sample_hook=tick,
        visited=table,
        profile=profile,
    )
    table.flush()
    return UnitResult(
        index=unit.index,
        seed=unit.seed,
        worker_id=worker_id,
        operations=result.operations,
        transitions=result.stats.transitions,
        unique_states=result.stats.unique_states,
        revisited_states=result.stats.revisited_states,
        sim_time=result.sim_time,
        wall_time=realtime.now() - wall_start,
        stopped_reason=result.stats.stopped_reason,
        violation=result.report.to_dict() if result.report else None,
        shipped_hashes=table.shipped_hashes,
        suppressed_hashes=table.suppressed_hashes,
        omission_possible=table.stats.omission_possible,
        omission_probability=table.stats.omission_probability,
        bytes_snapshotted=result.bytes_snapshotted,
        bytes_restored=result.bytes_restored,
        logical_snapshot_bytes=result.logical_snapshot_bytes,
        cost_profile=profile.to_dict() if profile is not None else None,
    )


def worker_main(conn, spec: CheckSpec, worker_id: str,
                config: WorkerConfig) -> None:
    """Process entry point: the request/run/report loop."""
    try:
        _worker_loop(conn, spec, worker_id, config)
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        pass  # coordinator went away (or aborted); nothing to clean up
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _worker_loop(conn, spec: CheckSpec, worker_id: str,
                 config: WorkerConfig) -> None:
    conn.send(Hello(worker_id, os.getpid()))
    shipped_lru = LRUSet()
    sink = PipeSink(conn, worker_id,
                    parse_store_spec(spec.state_store).key_bytes)
    session_operations = 0
    while True:
        conn.send(WorkRequest(worker_id))
        # the coordinator answers requests and nothing else, so the next
        # message is the answer to this one
        message = conn.recv()
        if isinstance(message, Wait):
            realtime.sleep(message.seconds)
            continue
        if isinstance(message, (NoMoreWork, Shutdown)):
            return
        if not isinstance(message, WorkGrant):
            continue  # unknown message: ignore and re-request
        result = run_unit(
            spec, message.unit, worker_id, config, sink,
            shipped_lru=shipped_lru,
            session_operations=session_operations,
        )
        session_operations += result.operations
        conn.send(UnitDone(worker_id, result))
