"""Worker process: runs leased work units and reports each one once.

A worker is a plain loop -- request a unit, run it, report it.  The
explorer's sample hook (every ``heartbeat_operations`` explored
operations) sends **heartbeats** that keep the coordinator's lease on
the current unit alive.  Nothing else leaves a running unit: the states
it found travel with its result, packed into the one :class:`UnitDone`.

A SIGKILL'd worker therefore loses a unit's worth of work and nothing
the campaign needs: the re-issued unit re-runs deterministically and
reports all of its states.

The same unit runner also serves the coordinator's in-process path (a
fleet of zero workers, or one whose workers have all died): it visits
the returned batch into the campaign's table itself, and its heartbeat
callback is the coordinator's progress callback.  ``run_unit`` has no
other caller: every campaign, served or not, is a
:class:`~repro.dist.coordinator.DistributedChecker`.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.dist import realtime
from repro.dist.protocol import (
    Heartbeat,
    NoMoreWork,
    RecordBatch,
    Shutdown,
    UnitDone,
    Wait,
    WorkGrant,
    WorkRequest,
)
from repro.dist.spec import CheckSpec, WorkUnit
from repro.mc.hashtable import AbstractVisitedTable
from repro.mc.records import pack_records
from repro.mc.statestore import make_store

if TYPE_CHECKING:
    from repro.core.mcfs import MCFSResult

#: heartbeat callback: ``(unit index, operations so far)``
HeartbeatFn = Callable[[int, int], None]


@dataclass
class WorkerConfig:
    """Tunables every worker receives at spawn time."""

    #: sample-hook period: one heartbeat every N operations
    heartbeat_operations: int = 100
    #: fault injection: SIGKILL ourselves after this many operations
    #: (counted across the whole worker session); None disables
    chaos_kill_after_operations: Optional[int] = None


def run_unit(spec: CheckSpec, unit: WorkUnit, worker_id: str,
             config: WorkerConfig,
             heartbeat: Optional[HeartbeatFn] = None,
             session_operations: int = 0,
             trail_dir: Optional[str] = None,
             table: Optional[AbstractVisitedTable] = None
             ) -> Tuple[MCFSResult, RecordBatch]:
    """Execute one work unit to completion; deterministic in isolation.

    Returns the run record of the unit's search, with the unit's
    identity set, and every state its private store reported new, as
    ``(record key, depth)`` records packed once.  A find writes its own
    trail into ``trail_dir`` (None: none), embedding the unit's spec.
    ``session_operations`` is the operation count the worker completed
    in earlier units (chaos fault injection triggers on the session
    total).  ``table``, a one-unit campaign's table while still empty, is
    explored on directly, shipping nothing: a private store would start
    as it does and ship back all it held (a local run keeps one store).
    """
    # per-unit input diversification: the unit explores with its own
    # profile (a function of the unit index only, CheckSpec.unit_profile)
    mcfs = replace(spec, input_profile=unit.input_profile).build_mcfs(
        trail_dir=trail_dir)

    found: Dict[int, int] = {}
    store = table
    if store is None:
        # the private store mirrors the campaign table's spec (same kind,
        # same seed), so the record keys the two sides derive agree; it
        # decides every expansion alone, and its new states are noted as
        # it reports them, at the depth last expanded from (a bitstate
        # store cannot list its keys afterwards)
        store = make_store(spec.state_store, seed=spec.base_seed)
        store_visit = store.visit

        def visit(state_hash: str, depth: int = 0):
            is_new, should_expand = store_visit(state_hash, depth)
            if should_expand:
                found[store.record_key(state_hash)] = depth
            return is_new, should_expand

        store.visit = visit

    def tick(stats) -> None:
        if (config.chaos_kill_after_operations is not None
                and session_operations + stats.operations
                >= config.chaos_kill_after_operations):
            os.kill(os.getpid(), signal.SIGKILL)  # fault injection: die hard
        if heartbeat is not None:
            heartbeat(unit.index, stats.operations)

    # sample only for a listener: unwatched, a unit's stats are the
    # library call's
    listened = (heartbeat is not None
                or config.chaos_kill_after_operations is not None)
    search = dict(max_operations=unit.max_operations, visited=store,
                  max_depth=unit.max_depth, sample_hook=tick,
                  sample_every=(config.heartbeat_operations if listened
                                else None))
    wall_start = realtime.now()
    if spec.mode == "dfs":
        result = mcfs.run_dfs(por=spec.por, **search)
    else:
        result = mcfs.run_random(
            seed=unit.seed,
            backtrack_probability=unit.backtrack_probability, **search)
    key_bytes = store.spec.key_bytes
    # a profiled spec's run profiles its ship too, if it ships
    profile = result.cost_profile
    if profile is not None and table is None:
        payload = profile.timed("ship", pack_records, found.items(),
                                key_bytes)
    else:
        payload = pack_records(found.items(), key_bytes)
    return replace(
        result,
        index=unit.index,
        seed=unit.seed,
        worker_id=worker_id,
        wall_time=realtime.now() - wall_start,
        shipped_hashes=len(found),
    ), RecordBatch(key_bytes, payload)


def worker_main(conn, spec: CheckSpec, worker_id: str,
                config: WorkerConfig,
                trail_dir: Optional[str] = None) -> None:
    """Process entry point: the request/run/report loop."""
    try:
        _worker_loop(conn, spec, worker_id, config, trail_dir)
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        pass  # coordinator went away (or aborted); nothing to clean up
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _worker_loop(conn, spec: CheckSpec, worker_id: str,
                 config: WorkerConfig, trail_dir: Optional[str]) -> None:
    def heartbeat(unit_index: int, operations: int) -> None:
        conn.send(Heartbeat(worker_id, unit_index, operations))

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
        result, batch = run_unit(spec, message.unit, worker_id, config,
                                 heartbeat,
                                 session_operations=session_operations,
                                 trail_dir=trail_dir)
        session_operations += result.operations
        conn.send(UnitDone(worker_id, result.to_dict(), batch))
