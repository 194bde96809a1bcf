"""The coordinator: owns the frontier, the fleet, and the merge.

``DistributedChecker`` turns a :class:`~repro.dist.spec.CheckSpec` into
a real :mod:`multiprocessing` campaign:

* the spec's work units are **seed-partitioned** across worker slots
  (unit ``i`` belongs to partition ``i mod workers``); a worker whose
  partition drains **steals** from the back of the largest remaining
  partition (classic steal-from-tail, so owners and thieves rarely
  contend for the same units);
* every granted unit is covered by a **lease** kept alive by heartbeats;
  an expired lease (or a dead process, detected sooner) re-issues the
  unit, which re-runs deterministically, so a SIGKILL'd worker costs
  wall time, never results;
* one **visited table** (the campaign's store) takes each finished
  unit's packed record batch, deduplicating cross-worker territory;
* units no live worker can take run **inline**, in this process, through
  the same ``run_unit``: that is what a fleet whose workers have all
  died falls back to, and all that ``workers=0`` ever does (no process,
  no pipe) -- the run always completes.

Determinism: units are self-contained and deterministic, the unit list
depends only on the spec, and merges are sorted -- so the discrepancy
set and the visited-state count are identical for any worker count,
any interleaving, and any crash schedule.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional

from repro.dist import realtime
from repro.dist.protocol import (
    Heartbeat,
    NoMoreWork,
    Shutdown,
    UnitDone,
    Wait,
    WorkGrant,
    WorkRequest,
)
from repro.dist.spec import CheckSpec, WorkUnit
from repro.dist.worker import WorkerConfig, run_unit, worker_main
from repro.mc.hashtable import AbstractVisitedTable, VisitedStateTable
from repro.mc.persistence import (
    resume,
    save_checker_state,
    snapshot_document,
    snapshot_from_document,
)
from repro.util.fieldcodec import FieldCodec

if TYPE_CHECKING:
    from repro.core.mcfs import MCFSResult
    from repro.core.report import DiscrepancyReport

#: seconds the coordinator waits on its worker pipes before it checks
#: leases and liveness again
POLL_INTERVAL = 0.02


@dataclass
class Lease:
    """One granted unit: who runs it and until when we trust them."""

    unit: WorkUnit
    worker_id: str
    deadline: float


@dataclass
class WorkerSummary(FieldCodec):
    """Per-worker accounting surfaced by ``repro swarm``."""

    worker_id: str
    units_completed: int = 0
    operations: int = 0
    sim_time: float = 0.0
    wall_time: float = 0.0
    alive_at_end: bool = True

    @property
    def wall_ops_per_second(self) -> float:
        return self.operations / self.wall_time if self.wall_time > 0 else 0.0


@dataclass
class WorkerRecord:
    """A worker slot while the fleet runs: its process and pipe, and the
    tally that is its :class:`WorkerSummary` once the run ends."""

    process: multiprocessing.process.BaseProcess
    conn: Connection
    summary: WorkerSummary

    @property
    def worker_id(self) -> str:
        return self.summary.worker_id

    @property
    def alive(self) -> bool:
        return self.summary.alive_at_end


def _accumulate(into, other, names) -> None:
    for name in names:
        setattr(into, name, getattr(into, name) + getattr(other, name))


def merged_cost_profile(profiles) -> Optional[Dict[str, Any]]:
    """Sum units' cost profiles into their campaign's document, skipping
    the None of whoever did not profile."""
    profiles = [profile for profile in profiles if profile is not None]
    if not profiles:
        return None
    from repro.mc.perf import CostProfile

    merged = CostProfile()
    for profile in profiles:
        merged.merge(profile)
    return merged.to_dict()


@dataclass
class DistResult(FieldCodec):
    """The deterministic merge of a distributed campaign."""

    workers: int
    unit_results: List[MCFSResult] = field(default_factory=list)
    table: AbstractVisitedTable = field(default_factory=VisitedStateTable)
    worker_summaries: List[WorkerSummary] = field(default_factory=list)
    wall_time: float = 0.0
    recovered_units: int = 0
    stolen_units: int = 0
    inline_units: int = 0
    #: the indices of the finished units (their records are in
    #: ``unit_results``) and the table's states the run resumed: it ran
    #: and added the rest
    resumed: List[int] = field(default_factory=list)
    resumed_states: int = 0
    #: campaign-wide per-state cost breakdown (unit profiles merged;
    #: :meth:`repro.mc.perf.CostProfile.to_dict` form) when the spec
    #: profiled; None otherwise
    cost_profile: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------- derived --
    @property
    def resumed_units(self) -> int:
        return len(self.resumed)

    @property
    def ran_results(self) -> List[MCFSResult]:
        """The records of the units this run executed, not resumed."""
        return [unit for unit in self.unit_results
                if unit.index not in self.resumed]

    @property
    def trail_paths(self) -> List[str]:
        """The trails units wrote (``trail_dir`` set), ordered by unit
        index like :attr:`discrepancies`."""
        return [unit.trail_path for unit in self.unit_results
                if unit.trail_path is not None]

    @property
    def visited_states(self) -> int:
        """Merged unique-state count (the union across all units)."""
        return len(self.table)

    @property
    def cross_worker_duplicates(self) -> int:
        """Records of finished units that the campaign's table already
        held on arrival, found by another unit on any worker or by an
        earlier unit of the same worker: the table's duplicate hits.
        Every unit ships each state its own store found new, so for an
        exact store started empty it is ``sum(shipped_hashes) -
        visited_states`` at any fleet size; a resumed table's count
        carries on from its snapshot.  A fresh one-unit campaign run
        inline ships nothing: this counts its unit's own revisits."""
        return self.table.stats.duplicate_hits

    @property
    def total_operations(self) -> int:
        return sum(unit.operations for unit in self.unit_results)

    @property
    def discrepancies(self) -> List[DiscrepancyReport]:
        """All per-unit violations, ordered by unit index (deterministic)."""
        return [unit.report for unit in self.unit_results
                if unit.report is not None]

    def discrepancy_signature(self) -> List[tuple]:
        """A comparable fingerprint of *what* was found, and by which unit."""
        return [(unit.index, unit.report.kind, unit.report.summary)
                for unit in self.unit_results if unit.report is not None]

    @property
    def found_discrepancy(self) -> bool:
        return any(unit.found_discrepancy for unit in self.unit_results)

    @property
    def sequential_sim_time(self) -> float:
        """Simulated compute if every unit this run executed ran back to
        back (like every work count below, resumed records add none)."""
        return sum(unit.sim_time for unit in self.ran_results)

    @property
    def omission_possible(self) -> bool:
        """True when the campaign's store could have omitted states."""
        return (self.table.stats.omission_possible
                or any(unit.omission_possible for unit in self.unit_results))

    @property
    def omission_probability(self) -> float:
        """Worst per-query omission probability seen anywhere."""
        return max(
            [self.table.stats.omission_probability]
            + [unit.omission_probability for unit in self.unit_results]
        )

    @property
    def bytes_snapshotted(self) -> int:
        """Bytes the fleet's checkpoint paths physically copied."""
        return sum(unit.bytes_snapshotted for unit in self.ran_results)

    @property
    def bytes_restored(self) -> int:
        """Bytes the fleet's restores physically rewrote."""
        return sum(unit.bytes_restored for unit in self.ran_results)

    @property
    def modeled_parallel_time(self) -> float:
        """Simulated wall-clock of the seed partition on ``workers`` lanes.

        Swarm accounting, made deterministic: members run concurrently,
        lane ``p`` runs the units with ``index % workers == p`` back to
        back, and the campaign takes as long as its slowest lane.  Using
        the static partition (not the stealing-adjusted actual schedule)
        keeps the number reproducible across interleavings.
        """
        lanes = [0.0] * max(1, self.workers)
        for unit in self.ran_results:
            lanes[unit.index % len(lanes)] += unit.sim_time
        return max(lanes)

    @property
    def speedup(self) -> float:
        """Modeled speedup over a single sequential lane."""
        parallel = self.modeled_parallel_time
        return self.sequential_sim_time / parallel if parallel > 0 else 0.0

    @property
    def states_per_second(self) -> float:
        """Merged unique states per modeled-parallel simulated second."""
        parallel = self.modeled_parallel_time
        return self.visited_states / parallel if parallel > 0 else 0.0

    @property
    def wall_states_per_second(self) -> float:
        """States the run added per real wall-clock second -- the honest
        throughput headline (the modeled number is the *shape* check)."""
        added = self.visited_states - self.resumed_states
        return added / self.wall_time if self.wall_time > 0 else 0.0

    # ------------------------------------------------------------ slices --
    def absorb(self, later: "DistResult") -> None:
        """Fold in the next slice of the same campaign.

        A campaign run a few units at a time (the server's scheduling
        quantum) is the same campaign: every slice visits one table, so
        the latest slice's table already speaks for all of them, and
        everything else adds up (the cost profile is a sum over
        ``unit_results``, whoever holds them).
        """
        self.unit_results = sorted(self.unit_results + later.unit_results,
                                   key=lambda unit: unit.index)
        self.table = later.table
        _accumulate(self, later, ("wall_time", "recovered_units",
                                  "stolen_units", "inline_units"))
        mine = {summary.worker_id: summary
                for summary in self.worker_summaries}
        for summary in later.worker_summaries:
            earlier = mine.get(summary.worker_id)
            if earlier is None:
                self.worker_summaries.append(summary)
                continue
            _accumulate(earlier, summary, ("units_completed", "operations",
                                           "sim_time", "wall_time"))
            earlier.alive_at_end = summary.alive_at_end

    # ------------------------------------------------------- serialisation --
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-ready form (the server result wire and spool).

        The merged visited table rides along as a
        :mod:`repro.mc.persistence` snapshot document, whatever its
        store kind.
        """
        document = super().to_dict()
        document["unit_results"] = [unit.to_dict()
                                    for unit in self.unit_results]
        document["worker_summaries"] = [summary.to_dict()
                                        for summary in self.worker_summaries]
        document["table"] = snapshot_document(self.table)
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "DistResult":
        from repro.core.mcfs import MCFSResult

        result = super().from_dict({
            key: value for key, value in document.items() if key != "table"})
        result.unit_results = [MCFSResult.from_dict(entry)
                               for entry in result.unit_results]
        result.worker_summaries = [WorkerSummary.from_dict(entry)
                                   for entry in result.worker_summaries]
        if document.get("table") is not None:
            result.table = snapshot_from_document(document["table"]).visited
        return result


class DistributedChecker:
    """Run a CheckSpec across a fault-tolerant multiprocessing fleet.

    The one campaign runner: ``workers=N`` forks N workers, ``workers=0``
    runs every unit in this process -- same units, same merge, same
    result.  A dfs spec is one unit, which no fleet of two or more can
    split: it is refused here.
    """

    def __init__(
        self,
        spec: CheckSpec,
        workers: int = 2,
        config: Optional[WorkerConfig] = None,
        lease_timeout: float = 15.0,
        state_file: Optional[str] = None,
        mp_context=None,
        #: fault injection: worker_id -> SIGKILL-self after N operations
        chaos_kill_after: Optional[Dict[str, int]] = None,
        #: each unit that finds a violation writes its ``*.trail.json``
        #: into this directory, so distributed finds replay locally;
        #: None disables
        trail_dir: Optional[str] = None,
        #: embedding hooks (the campaign server drives the fleet through
        #: these): an explicit unit subset to run instead of the spec's
        #: full partition, the campaign's visited table to run on, and a
        #: progress callback fired as the fleet reports
        units: Optional[List[WorkUnit]] = None,
        table: Optional[AbstractVisitedTable] = None,
        on_progress=None,
    ):
        if workers < 0:
            raise ValueError("a fleet cannot have fewer than zero workers")
        if workers > 1 and spec.mode != "random":
            raise ValueError("--workers 2 or more requires --mode random "
                             "(a dfs search is one unit, the whole search)")
        if table is not None and state_file is not None:
            raise ValueError("a campaign runs on a given table or resumes "
                             "its state file, not both")
        self.spec = spec
        self.workers = workers
        self.units_override = units
        self.table = table
        self.on_progress = on_progress
        self.config = config if config is not None else WorkerConfig()
        self.lease_timeout = lease_timeout
        self.state_file = state_file
        self.trail_dir = trail_dir
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
        self.mp_context = mp_context
        self.chaos_kill_after = dict(chaos_kill_after or {})

    # ------------------------------------------------------------------ run --
    def run(self) -> DistResult:
        snapshot = resume(self.state_file, self.spec.state_store,
                          self.spec.base_seed, spec=self.spec,
                          table=self.table)
        table = snapshot.visited
        # the resume rule: a unit with a record is done
        results = {unit.index: unit for unit in snapshot.unit_results}
        units = (self.units_override if self.units_override is not None
                 else self.spec.units_without(snapshot.unit_results))
        result = DistResult(workers=self.workers, resumed=sorted(results),
                            resumed_states=len(table))
        # the operations of earlier runs that no record holds
        unrecorded = snapshot.operations_completed - sum(
            unit.operations for unit in snapshot.unit_results)

        def save() -> None:
            if self.state_file is not None:
                save_checker_state(
                    self.state_file, table, runs=snapshot.runs + 1,
                    operations_completed=unrecorded + sum(
                        unit.operations for unit in results.values()),
                    spec=self.spec, unit_results=results.values())

        def land(unit_result: MCFSResult, batch) -> None:
            """A finished unit's states enter the table (a malformed
            payload raises StoreFormatError; states it held count as
            duplicate hits), its record the results, and both the state
            file: an interrupted campaign keeps every unit it finished."""
            table.visit_many(batch.records())
            results.setdefault(unit_result.index, unit_result)
            save()

        # seed-partitioned initial split: unit i -> partition i mod W
        partitions: List[Deque[WorkUnit]] = [
            deque() for _ in range(max(1, self.workers))]
        for unit in units:
            partitions[unit.index % len(partitions)].append(unit)

        records: List[WorkerRecord] = []
        wall_start = realtime.now()
        try:
            records = self._spawn_fleet()
            self._supervise(records, partitions, units, results, land,
                            result)
            self._finish_inline(units, results, land, result, table)
        finally:
            self._shutdown_fleet(records)
        result.wall_time = realtime.now() - wall_start

        result.unit_results = sorted(results.values(),
                                     key=lambda unit: unit.index)
        result.table = table
        result.cost_profile = merged_cost_profile(
            unit.cost_profile for unit in result.unit_results)
        result.worker_summaries = [record.summary for record in records]
        save()
        return result

    # ------------------------------------------------------------ internals --
    def _spawn_fleet(self) -> List[WorkerRecord]:
        from dataclasses import replace

        records: List[WorkerRecord] = []
        for slot in range(self.workers):
            worker_id = f"w{slot}"
            parent_conn, child_conn = self.mp_context.Pipe(duplex=True)
            config = self.config
            if worker_id in self.chaos_kill_after:
                config = replace(
                    config,
                    chaos_kill_after_operations=self.chaos_kill_after[worker_id],
                )
            process = self.mp_context.Process(
                target=worker_main,
                args=(child_conn, self.spec, worker_id, config,
                      self.trail_dir),
                name=f"repro-dist-{worker_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            records.append(WorkerRecord(process, parent_conn,
                                        WorkerSummary(worker_id)))
        return records

    def _supervise(self, records: List[WorkerRecord],
                   partitions: List[Deque[WorkUnit]],
                   units: List[WorkUnit],
                   results: Dict[int, MCFSResult], land,
                   result: DistResult) -> None:
        """Lease units until each has a record or no worker is alive."""
        by_id = {record.worker_id: record for record in records}
        target = len(results) + len(units)
        leases: Dict[str, Lease] = {}
        wall_started: Dict[str, float] = {}

        def live() -> List[WorkerRecord]:
            return [record for record in records if record.alive]

        def recover(record: WorkerRecord) -> None:
            """A worker is gone: re-issue its lease."""
            record.summary.alive_at_end = False
            lease = leases.pop(record.worker_id, None)
            if lease is not None:
                # back to the front of its home partition: the next
                # requester (owner or thief) re-runs it deterministically
                partitions[lease.unit.index % self.workers].appendleft(
                    lease.unit)
                result.recovered_units += 1
            if record.worker_id in wall_started:
                record.summary.wall_time += (
                    realtime.now() - wall_started.pop(record.worker_id))
            if record.process.is_alive():
                record.process.terminate()
            try:
                record.conn.close()
            except OSError:
                pass

        def next_unit(slot: int) -> Optional[WorkUnit]:
            """Own partition first; then steal from the largest backlog."""
            if partitions[slot]:
                return partitions[slot].popleft()
            victim = max(
                (index for index in range(self.workers) if index != slot),
                key=lambda index: len(partitions[index]),
                default=None,
            )
            if victim is None or not partitions[victim]:
                return None
            result.stolen_units += 1
            return partitions[victim].pop()  # steal from the tail

        def handle(record: WorkerRecord, message) -> None:
            now = realtime.now()
            if isinstance(message, WorkRequest):
                if record.worker_id in leases:
                    # a duplicate request while a grant is outstanding:
                    # granting again would overwrite the lease and lose
                    # the first unit.  Wait instead -- either the worker
                    # runs the queued grant (lease resolves normally) or
                    # the lease expires and recover() re-queues the unit.
                    record.conn.send(Wait())
                    return
                slot = records.index(record)
                unit = next_unit(slot)
                if unit is not None:
                    leases[record.worker_id] = Lease(
                        unit=unit, worker_id=record.worker_id,
                        deadline=now + self.lease_timeout,
                    )
                    wall_started[record.worker_id] = now
                    record.conn.send(WorkGrant(unit))
                elif len(results) >= target:
                    record.conn.send(NoMoreWork())
                else:
                    record.conn.send(Wait())  # outstanding leases elsewhere
            elif isinstance(message, Heartbeat):
                lease = leases.get(record.worker_id)
                if lease is not None and lease.unit.index == message.unit_index:
                    lease.deadline = now + self.lease_timeout
                    if self.on_progress is not None:
                        self.on_progress(message.unit_index,
                                         message.operations)
            elif isinstance(message, UnitDone):
                unit_result = message.result
                lease = leases.get(record.worker_id)
                if lease is not None and lease.unit.index == unit_result.index:
                    leases.pop(record.worker_id)
                summary = record.summary
                summary.units_completed += 1
                summary.operations += unit_result.operations
                summary.sim_time += unit_result.sim_time
                if record.worker_id in wall_started:
                    summary.wall_time += now - wall_started.pop(
                        record.worker_id)
                land(unit_result, message.batch)

        while len(results) < target and live():
            connections = [record.conn for record in live()]
            ready = connection_wait(connections, timeout=POLL_INTERVAL)
            for conn in ready:
                record = next(r for r in live() if r.conn is conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    recover(record)
                    continue
                handle(record, message)
            now = realtime.now()
            for record in live():
                lease = leases.get(record.worker_id)
                if not record.process.is_alive():
                    recover(record)  # died between heartbeats (e.g. SIGKILL)
                elif lease is not None and now > lease.deadline:
                    recover(record)  # alive but silent past the lease

        # final per-worker wall accounting for workers still mid-request
        now = realtime.now()
        for worker_id, started in list(wall_started.items()):
            by_id[worker_id].summary.wall_time += now - started

    def _finish_inline(self, units: List[WorkUnit],
                       results: Dict[int, MCFSResult], land,
                       result: DistResult, table: AbstractVisitedTable
                       ) -> None:
        """Units no live worker took (none was asked for, or all died):
        complete the frontier in-process, reporting progress like leased units;
        a fresh one-unit campaign's unit explores on the table itself."""
        fresh = len(table) == 0 and len(self.spec.work_units()) == 1
        for unit in units:
            if unit.index in results:
                continue
            land(*run_unit(self.spec, unit, "coordinator", self.config,
                           self.on_progress, trail_dir=self.trail_dir,
                           table=table if fresh else None))
            result.inline_units += 1

    def _shutdown_fleet(self, records: List[WorkerRecord]) -> None:
        for record in records:
            if not record.alive:
                continue
            try:
                record.conn.send(Shutdown())
            except (OSError, BrokenPipeError):
                pass
        for record in records:
            if record.process.is_alive():
                record.process.join(timeout=2.0)
            if record.process.is_alive():
                record.process.terminate()
                record.process.join(timeout=1.0)
            try:
                record.conn.close()
            except OSError:
                pass
