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
  unit -- after merging the worker's last shipped checkpoint -- so a
  SIGKILL'd worker costs wall time, never results;
* a **visited-state service** (one authoritative table) answers the
  workers' batched insert RPCs, deduplicating cross-worker territory;
* units no live worker can take run **inline**, in this process, through
  the same ``run_unit``: that is what a fleet whose workers have all
  died falls back to, and all that ``workers=0`` ever does (no process,
  no pipe, no segment) -- the run always completes.

Determinism: units are self-contained and deterministic, the unit list
depends only on the spec, and merges are sorted -- so the discrepancy
set and the visited-state count are identical for any worker count,
any interleaving, and any crash schedule.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Any, Deque, Dict, List, Optional

from repro.core.report import DiscrepancyReport
from repro.dist import realtime
from repro.dist.protocol import (
    Checkpoint,
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
from repro.dist.worker import LocalSink, WorkerConfig, run_unit, worker_main
from repro.mc.hashtable import AbstractVisitedTable, VisitedStateTable
from repro.mc.records import parse_store_spec
from repro.mc.shardmem import (
    ShardLayout,
    ShardSegment,
    shared_memory_available,
)
from repro.mc.statestore import merge_into
from repro.util.fieldcodec import FieldCodec


@dataclass
class Lease:
    """One granted unit: who runs it and until when we trust them."""

    unit: WorkUnit
    worker_id: str
    deadline: float
    checkpoint: Optional[Dict[str, Any]] = None


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

    process: Any
    conn: Any
    summary: WorkerSummary
    pid: Optional[int] = None

    @property
    def worker_id(self) -> str:
        return self.summary.worker_id

    @property
    def alive(self) -> bool:
        return self.summary.alive_at_end


def _accumulate(into, other, names) -> None:
    for name in names:
        setattr(into, name, getattr(into, name) + getattr(other, name))


def merged_cost_profile(documents) -> Optional[Dict[str, Any]]:
    """Sum units' cost-profile documents into their campaign's, skipping
    the None of whoever did not profile."""
    documents = [document for document in documents if document is not None]
    if not documents:
        return None
    from repro.mc.perf import CostProfile

    merged = CostProfile()
    for document in documents:
        merged.merge(CostProfile.from_dict(document))
    return merged.to_dict()


@dataclass
class DistResult(FieldCodec):
    """The deterministic merge of a distributed campaign."""

    workers: int
    unit_results: List[UnitResult] = field(default_factory=list)
    table: AbstractVisitedTable = field(default_factory=VisitedStateTable)
    worker_summaries: List[WorkerSummary] = field(default_factory=list)
    wall_time: float = 0.0
    recovered_units: int = 0
    stolen_units: int = 0
    inline_units: int = 0
    cross_worker_duplicates: int = 0
    #: which data plane carried visited-state traffic ("shm" or "rpc")
    data_plane: str = "rpc"
    #: campaign-wide per-state cost breakdown (unit profiles merged;
    #: :meth:`repro.mc.perf.CostProfile.to_dict` form) when the spec
    #: profiled; None otherwise
    cost_profile: Optional[Dict[str, Any]] = None
    #: trail files written from unit violations (``trail_dir`` set),
    #: ordered by unit index like :attr:`discrepancies`
    trail_paths: List[str] = field(default_factory=list)

    # ------------------------------------------------------------- derived --
    @property
    def visited_states(self) -> int:
        """Merged unique-state count (the union across all units)."""
        return len(self.table)

    @property
    def total_operations(self) -> int:
        return sum(unit.operations for unit in self.unit_results)

    @property
    def discrepancies(self) -> List[DiscrepancyReport]:
        """All per-unit violations, ordered by unit index (deterministic)."""
        return [DiscrepancyReport.from_dict(unit.violation)
                for unit in self.unit_results if unit.violation is not None]

    def discrepancy_signature(self) -> List[tuple]:
        """A comparable fingerprint of *what* was found, and by which unit."""
        return [(unit.index, unit.violation["kind"], unit.violation["summary"])
                for unit in self.unit_results if unit.violation is not None]

    @property
    def found_discrepancy(self) -> bool:
        return any(unit.violation is not None for unit in self.unit_results)

    @property
    def sequential_sim_time(self) -> float:
        """Simulated compute if every unit ran back to back."""
        return sum(unit.sim_time for unit in self.unit_results)

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
        return sum(unit.bytes_snapshotted for unit in self.unit_results)

    @property
    def bytes_restored(self) -> int:
        """Bytes the fleet's restores physically rewrote."""
        return sum(unit.bytes_restored for unit in self.unit_results)

    @property
    def snapshot_dedup_ratio(self) -> float:
        """Fleet-wide logical-to-physical snapshot ratio (0.0 = none)."""
        physical = self.bytes_snapshotted
        if physical <= 0:
            return 0.0
        logical = sum(unit.logical_snapshot_bytes for unit in self.unit_results)
        return logical / physical

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
        for unit in self.unit_results:
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
        """Merged unique states per real wall-clock second -- the honest
        throughput headline (the modeled number is the *shape* check)."""
        return self.visited_states / self.wall_time if self.wall_time > 0 else 0.0

    # ------------------------------------------------------------ slices --
    def absorb(self, later: "DistResult") -> None:
        """Fold in the next slice of the same campaign.

        A campaign run a few units at a time (the server's scheduling
        quantum) is the same campaign: every slice merged into one
        service, so the latest slice's table and duplicate count already
        speak for all of them, and everything else adds up (the cost
        profile is a sum over ``unit_results``, whoever holds them).
        """
        self.unit_results = sorted(self.unit_results + later.unit_results,
                                   key=lambda unit: unit.index)
        self.table = later.table
        self.data_plane = later.data_plane
        self.cross_worker_duplicates = later.cross_worker_duplicates
        _accumulate(self, later, ("wall_time", "recovered_units",
                                  "stolen_units", "inline_units"))
        self.trail_paths.extend(later.trail_paths)
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
        from repro.mc.persistence import snapshot_document

        document = super().to_dict()
        document["unit_results"] = [unit.to_dict()
                                    for unit in self.unit_results]
        document["worker_summaries"] = [summary.to_dict()
                                        for summary in self.worker_summaries]
        document["table"] = snapshot_document(self.table)
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "DistResult":
        from repro.mc.persistence import snapshot_from_document

        result = super().from_dict({
            key: value for key, value in document.items() if key != "table"})
        result.unit_results = [UnitResult.from_dict(entry)
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
    result.
    """

    def __init__(
        self,
        spec: CheckSpec,
        workers: int = 2,
        config: Optional[WorkerConfig] = None,
        lease_timeout: float = 15.0,
        poll_interval: float = 0.02,
        state_file: Optional[str] = None,
        mp_context=None,
        #: fault injection: worker_id -> SIGKILL-self after N operations
        chaos_kill_after: Optional[Dict[str, int]] = None,
        #: write a ``*.trail.json`` per unit violation into this
        #: directory, so distributed finds replay locally; None disables
        trail_dir: Optional[str] = None,
        #: embedding hooks (the campaign server drives the fleet through
        #: these): an explicit unit subset to run instead of the spec's
        #: full partition, an external visited-state service to merge
        #: into, and progress callbacks fired as the fleet reports
        units: Optional[List[WorkUnit]] = None,
        service: Optional[VisitedStateService] = None,
        on_unit_done=None,
        on_progress=None,
    ):
        if workers < 0:
            raise ValueError("a fleet cannot have fewer than zero workers")
        self.spec = spec
        self.workers = workers
        self.units_override = units
        self.external_service = service
        self.on_unit_done = on_unit_done
        self.on_progress = on_progress
        self.config = config if config is not None else WorkerConfig()
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.state_file = state_file
        self.trail_dir = trail_dir
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
        self.mp_context = mp_context
        self.chaos_kill_after = dict(chaos_kill_after or {})
        #: one segment per worker slot while a run is on the shm plane
        self._shm_segments: List[ShardSegment] = []

    # ------------------------------------------------------------ data plane --
    def _resolve_data_plane(self) -> str:
        """Pick the visited-state plane for this run.

        ``auto`` takes shared memory whenever it can actually work: the
        OS offers ``multiprocessing.shared_memory`` and the fleet forks
        (spawned children re-track segments and the plane's determinism
        guarantees have only been validated fork-side).  Forcing
        ``shm`` where it cannot work is an error, not a silent fallback.
        """
        requested = self.spec.data_plane
        if requested == "rpc":
            return "rpc"
        supported = (
            shared_memory_available()
            and self.mp_context.get_start_method() == "fork"
        )
        if requested == "shm" and not supported:
            raise ValueError(
                "data_plane='shm' is not available here: needs the fork "
                "start method and multiprocessing.shared_memory"
            )
        return "shm" if supported else "rpc"

    def _shard_layout(self, units: List[WorkUnit]) -> ShardLayout:
        """Segment geometry sized so overflow is an anomaly, not a plan.

        Worst case one worker (via stealing) discovers every state the
        whole campaign can produce: one state per operation plus the
        initial state of each unit.  Slots are provisioned at 2x that
        bound (open addressing wants load factor <= 0.5), so the RPC
        overflow path exists for safety, not throughput.
        """
        worst_case = sum(unit.max_operations + 2 for unit in units)
        slots = 1 << 12
        while slots < 2 * worst_case:
            slots *= 2
        return ShardLayout(
            slots, parse_store_spec(self.spec.state_store).key_bytes)

    def _merge_segments(self, service: VisitedStateService) -> None:
        """Fold every worker segment into the authoritative table.

        The union is replayed **sorted by key** with shallowest depth
        winning -- a canonical order, so the merged table is identical
        for any worker count, interleaving, or crash schedule (and
        byte-identical to what the RPC plane's arrival-order inserts
        converge to: same keys, same shallowest depths).  Duplicated
        territory (the same key published by several workers) surfaces
        as ``cross_worker_duplicates``, exactly like the RPC plane's
        not-new insert replies.
        """
        union: Dict[int, int] = {}
        published = 0
        for segment in self._shm_segments:
            for key, depth in segment.entries():
                published += 1
                existing = union.get(key)
                if existing is None or depth < existing:
                    union[key] = depth
        service.table.visit_many(sorted(union.items()))
        service.hashes_received += published
        service.cross_worker_duplicates += published - len(union)

    def _release_segments(self) -> None:
        for segment in self._shm_segments:
            try:
                segment.unlink()
            except Exception:
                pass  # never let cleanup mask the run's real outcome
        self._shm_segments = []

    # ------------------------------------------------------------------ run --
    def run(self) -> DistResult:
        units = (self.units_override if self.units_override is not None
                 else self.spec.work_units())
        service = self.external_service
        if service is None:
            service = VisitedStateService(
                store=self.spec.state_store,
                store_seed=self.spec.base_seed,
            )
        resumed_operations = 0
        resumed_runs = 0
        if self.state_file is not None:
            from repro.mc.persistence import load_checker_state

            snapshot = load_checker_state(self.state_file)
            if snapshot is not None:
                merge_into(service.table, snapshot.visited)
                resumed_operations = snapshot.operations_completed
                resumed_runs = snapshot.runs

        # a fleet of zero has no plane to choose: inline units insert
        # straight into the service
        plane = self._resolve_data_plane() if self.workers else "rpc"
        if plane == "shm":
            layout = self._shard_layout(units)
            try:
                # appended one by one, so a failure part-way still
                # leaves the created ones where the release finds them
                for _ in range(self.workers):
                    self._shm_segments.append(
                        ShardSegment(layout, create=True))
            except Exception:
                # no /dev/shm room (or similar): degrade to the RPC plane
                self._release_segments()
                plane = "rpc"

        result = DistResult(workers=self.workers, data_plane=plane)
        # seed-partitioned initial split: unit i -> partition i mod W
        partitions: List[Deque[WorkUnit]] = [
            deque() for _ in range(max(1, self.workers))]
        for unit in units:
            partitions[unit.index % len(partitions)].append(unit)

        records: List[WorkerRecord] = []
        wall_start = realtime.now()
        try:
            records = self._spawn_fleet()
            self._supervise(records, partitions, units, service, result)
        finally:
            self._shutdown_fleet(records)
            try:
                # merge before the timer stops: the shm plane's deferred
                # union is part of its honest wall cost.  Runs on error
                # exits too (a paused/aborted campaign keeps the fleet's
                # published knowledge, like RPC checkpoints used to).
                self._merge_segments(service)
            finally:
                self._release_segments()
        result.wall_time = realtime.now() - wall_start

        result.unit_results.sort(key=lambda unit: unit.index)
        result.table = service.table
        result.cost_profile = merged_cost_profile(
            unit.cost_profile for unit in result.unit_results)
        if self.trail_dir is not None:
            self._capture_trails(result)
        result.cross_worker_duplicates = service.cross_worker_duplicates
        result.worker_summaries = [record.summary for record in records]
        if self.state_file is not None:
            from repro.mc.persistence import save_checker_state

            save_checker_state(
                self.state_file, service.table,
                operations_completed=resumed_operations
                + result.total_operations,
                runs=resumed_runs + 1,
                seed=self.spec.base_seed,
                worker_id="coordinator",
            )
        return result

    # ------------------------------------------------------------ internals --
    def _capture_trails(self, result: DistResult) -> None:
        """Write one trail per unit violation: the worker's schedule came
        back through the wire inside the serialised report, so a
        distributed find is locally replayable like any other."""
        from repro.trail import capture_trail

        for unit in result.unit_results:
            if unit.violation is None:
                continue
            report = DiscrepancyReport.from_dict(unit.violation)
            if report.schedule is None:
                continue
            result.trail_paths.append(capture_trail(
                report, self.spec, self.trail_dir,
                mode="random", seed=unit.seed,
                name=f"unit{unit.index:03d}-seed{unit.seed}",
            ))

    def _spawn_fleet(self) -> List[WorkerRecord]:
        from dataclasses import replace

        records: List[WorkerRecord] = []
        for slot in range(self.workers):
            worker_id = f"w{slot}"
            parent_conn, child_conn = self.mp_context.Pipe(duplex=True)
            config = self.config
            if self._shm_segments:
                segment = self._shm_segments[slot]
                config = replace(config, shm_layout=segment.layout,
                                 shm_segment=segment.name)
            if worker_id in self.chaos_kill_after:
                config = replace(
                    config,
                    chaos_kill_after_operations=self.chaos_kill_after[worker_id],
                )
            process = self.mp_context.Process(
                target=worker_main,
                args=(child_conn, self.spec, worker_id, config),
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
                   service: VisitedStateService,
                   result: DistResult) -> None:
        by_id = {record.worker_id: record for record in records}
        results: Dict[int, UnitResult] = {}
        leases: Dict[str, Lease] = {}
        wall_started: Dict[str, float] = {}

        def live() -> List[WorkerRecord]:
            return [record for record in records if record.alive]

        def recover(record: WorkerRecord) -> None:
            """A worker is gone: merge its checkpoint, re-issue its lease."""
            record.summary.alive_at_end = False
            lease = leases.pop(record.worker_id, None)
            if lease is not None:
                if lease.checkpoint is not None:
                    service.import_snapshot(lease.checkpoint)
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
            if isinstance(message, Hello):
                record.pid = message.pid
            elif isinstance(message, WorkRequest):
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
                elif len(results) >= len(units):
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
            elif isinstance(message, RecordBatch):
                service.insert_packed(message)
            elif isinstance(message, Checkpoint):
                lease = leases.get(record.worker_id)
                if lease is not None and lease.unit.index == message.unit_index:
                    lease.checkpoint = message.document
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
                if unit_result.index not in results:
                    results[unit_result.index] = unit_result
                    if self.on_unit_done is not None:
                        self.on_unit_done(unit_result)

        while len(results) < len(units):
            connections = [record.conn for record in live()]
            if not connections:
                self._finish_inline(units, results, service, result)
                break
            ready = connection_wait(connections, timeout=self.poll_interval)
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

        result.unit_results = list(results.values())
        # final per-worker wall accounting for workers still mid-request
        now = realtime.now()
        for worker_id, started in list(wall_started.items()):
            by_id[worker_id].summary.wall_time += now - started

    def _finish_inline(self, units: List[WorkUnit],
                       results: Dict[int, UnitResult],
                       service: VisitedStateService,
                       result: DistResult) -> None:
        """No live worker (none was asked for, or all died): complete
        the frontier in-process, reporting progress like leased units."""
        sink = LocalSink(service, self.on_progress)
        for unit in units:
            if unit.index in results:
                continue
            results[unit.index] = run_unit(
                self.spec, unit, "coordinator", self.config, sink)
            result.inline_units += 1
            if self.on_unit_done is not None:
                self.on_unit_done(results[unit.index])

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
