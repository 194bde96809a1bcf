"""The campaign engine: queue, slots, budgets, pause/resume -- no I/O.

The engine is the daemon's heart with the sockets cut off: it owns the
job table, a priority queue, a bounded set of run *slots*, and a virtual
:class:`~repro.clock.SimClock`, and it advances campaigns one **work
unit** at a time (``step()``).  The unit is the scheduling quantum for
the same reason it is the distribution quantum in :mod:`repro.dist`:
units are deterministic in isolation and merge by sorted union, so any
interleaving of steps -- including a pause, a daemon restart, and a
resume -- produces a result identical to an uninterrupted one-shot run.

Responsibilities:

* **scheduling** -- jobs queue by ``(-priority, submission order)``;
  free slots admit the head of the queue; running jobs advance
  round-robin, one unit slice per step, so concurrent campaigns make
  interleaved progress and every watcher sees a live stream;
* **tenant budgets** -- admission control charges each job's worst-case
  store footprint (:meth:`~repro.mc.statestore.StoreSpec.planned_bytes`)
  against its tenant's byte budget; when the reservation does not fit,
  the engine *forces* a memory-bounded store (``bitstate``) sized to the
  remaining budget instead of refusing outright -- the campaign still
  runs, lossy, with its omission probability accounted;
* **pause/resume** -- a pause lands at the next unit boundary and
  serialises the job's visited store plus the *frontier* of not-yet-run
  unit indices as a :mod:`repro.mc.persistence` document; resume
  -- in the same engine or a restarted one -- rebuilds the store from
  the snapshot and re-derives the remaining units from the spec;
* **events** -- every transition appends to a totally-ordered,
  virtual-time-stamped event log (:class:`~repro.server.protocol.JobEvent`);
  because the clock is virtual and the log depends only on the call
  sequence, a scripted multi-client scenario replays byte-identically.

Everything here is single-threaded and synchronous; the daemon
interleaves ``step()`` with socket polling.  A slice *is* a
:class:`~repro.dist.DistributedChecker` run over the next few pending
units, merging into the job's own service: a fleet of real processes
for jobs with ``workers > 1``, a fleet of zero (units run in this
process) otherwise.
"""

from __future__ import annotations

import heapq
import json
import os
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.clock import SimClock
from repro.core.report import DiscrepancyReport
from repro.dist.coordinator import (
    DistResult,
    DistributedChecker,
    merged_cost_profile,
)
from repro.dist.protocol import UnitResult
from repro.dist.service import VisitedStateService
from repro.dist.spec import CheckSpec, WorkUnit
from repro.dist.worker import WorkerConfig
from repro.mc.persistence import snapshot_document
from repro.mc.records import parse_store_spec
from repro.server.protocol import (
    CANCELLED,
    DONE,
    FAILED,
    PAUSED,
    QUEUED,
    RUNNING,
    JobDescriptor,
    JobEvent,
    SubmitRequest,
    TERMINAL_STATES,
)
from repro.trail import capture_trail

SPOOL_VERSION = 1

#: forcing below this bitstate size would be omission theatre, not
#: checking -- a tenant this far over budget gets a refusal instead
MIN_FORCED_BITS = 1 << 13

#: forced stores keep the default hash count (k=3 is the repo-wide
#: bitstate default; see repro.mc.statestore)
FORCED_K = 3


class ServerError(Exception):
    """Base for engine-level request failures (mapped onto the wire)."""


class UnknownJob(ServerError):
    def __init__(self, job_id: str):
        super().__init__(f"unknown job {job_id!r}")


class InvalidTransition(ServerError):
    def __init__(self, job_id: str, state: str, verb: str):
        super().__init__(f"cannot {verb} job {job_id!r} in state {state!r}")


class BudgetExceeded(ServerError):
    def __init__(self, tenant: str, needed: int, remaining: int):
        super().__init__(
            f"tenant {tenant!r} budget exhausted: smallest useful store "
            f"needs {needed} bytes, {remaining} remaining")


@dataclass
class EngineConfig:
    """Daemon-level policy knobs (all deterministic)."""

    #: how many jobs run concurrently (slots); queued jobs wait
    slots: int = 2
    #: tenant -> aggregate visited-store byte budget across that
    #: tenant's *active* (queued/running/paused) jobs; absent = unlimited
    tenant_budgets: Dict[str, int] = field(default_factory=dict)
    #: directory for ``*.trail.json`` files streamed to watchers
    trail_dir: Optional[str] = None
    #: directory for job documents (queue + pause snapshots); None
    #: disables persistence -- jobs die with the engine
    spool_dir: Optional[str] = None
    #: worker sample-hook period inside a unit (heartbeat event rate)
    heartbeat_operations: int = 100


@dataclass
class _Runtime:
    """The in-memory half of a job the descriptor does not carry."""

    spec: CheckSpec
    pending: Deque[WorkUnit]
    submit_seq: int
    #: the campaign so far: every slice's result absorbed into one
    result: DistResult
    service: Optional[VisitedStateService] = None
    #: persistence document to seed the service from (set while paused
    #: and after a spool reload; consumed at (re)start)
    snapshot: Optional[Dict[str, Any]] = None
    pause_requested: bool = False


class CampaignEngine:
    """Queue, schedule, and advance campaigns; emit their event streams."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config if config is not None else EngineConfig()
        self.clock = SimClock()
        self.jobs: Dict[str, JobDescriptor] = {}
        self._runtimes: Dict[str, _Runtime] = {}
        #: min-heap of (-priority, submit_seq, job_id); stale entries
        #: (job no longer queued) are skipped at admission
        self._queue: List[Any] = []
        self._slots: List[Optional[str]] = [None] * self.config.slots
        self._round_robin = 0
        self._event_seq = 0
        self._submit_seq = 0
        self._job_counter = 0
        self.events: List[JobEvent] = []
        self._listeners: List[Callable[[JobEvent], None]] = []
        if self.config.spool_dir is not None:
            os.makedirs(self.config.spool_dir, exist_ok=True)
            self._load_spool()

    # ------------------------------------------------------------- listeners --
    def subscribe(self, listener: Callable[[JobEvent], None]) -> None:
        """Register a live-event callback (the daemon's broadcast hook)."""
        self._listeners.append(listener)

    def events_for(self, job_id: Optional[str] = None,
                   from_seq: int = 0) -> List[JobEvent]:
        """Replay slice of the global log (watch catch-up)."""
        return [event for event in self.events
                if event.seq >= from_seq
                and (job_id is None or event.job_id == job_id)]

    def _emit(self, kind: str, job_id: str,
              payload: Optional[Dict[str, Any]] = None) -> JobEvent:
        event = JobEvent(kind=kind, job_id=job_id, seq=self._event_seq,
                         vtime=self.clock.now, payload=payload or {})
        self._event_seq += 1
        self.events.append(event)
        for listener in self._listeners:
            listener(event)
        return event

    # ------------------------------------------------------------ admission --
    def submit(self, request: SubmitRequest) -> JobDescriptor:
        """Admit a campaign: budget-check, enqueue, and announce it."""
        spec = CheckSpec.from_dict(request.spec)
        workers = max(1, int(request.workers))
        self._job_counter += 1
        job_id = f"job-{self._job_counter:04d}"
        requested = parse_store_spec(spec.state_store)
        effective_spec, planned, forced = self._enforce_budget(
            request.tenant, spec)
        descriptor = JobDescriptor(
            job_id=job_id,
            tenant=request.tenant,
            priority=request.priority,
            state=QUEUED,
            workers=workers,
            spec=effective_spec.to_dict(),
            requested_store=requested.describe(),
            effective_store=parse_store_spec(
                effective_spec.state_store).describe(),
            store_forced=forced,
            submitted_vtime=self.clock.now,
            units_total=effective_spec.units,
            planned_store_bytes=planned,
        )
        self.jobs[job_id] = descriptor
        self._runtimes[job_id] = _Runtime(
            spec=effective_spec,
            pending=deque(effective_spec.work_units()),
            submit_seq=self._submit_seq,
            result=DistResult(workers=workers),
        )
        heapq.heappush(self._queue,
                       (-descriptor.priority, self._submit_seq, job_id))
        self._submit_seq += 1
        self._emit("submitted", job_id, {
            "tenant": descriptor.tenant,
            "priority": descriptor.priority,
            "units": descriptor.units_total,
            "store": descriptor.effective_store,
        })
        if forced:
            self._emit("store-forced", job_id, {
                "requested": descriptor.requested_store,
                "effective": descriptor.effective_store,
                "planned_bytes": planned,
                "budget": self.config.tenant_budgets.get(request.tenant),
            })
        self._save_spool(job_id)
        return descriptor

    def _tenant_reserved(self, tenant: str) -> int:
        """Bytes currently reserved by the tenant's active jobs."""
        return sum(job.planned_store_bytes for job in self.jobs.values()
                   if job.tenant == tenant and job.active)

    def _enforce_budget(self, tenant: str, spec: CheckSpec):
        """Fit the spec's store under the tenant's remaining budget.

        Returns ``(effective_spec, planned_bytes, forced)``.  The
        worst case assumes every operation of every unit discovers a new
        state -- the same closed-form bound ``repro plan`` prints.
        """
        budget = self.config.tenant_budgets.get(tenant)
        expected_states = spec.units * spec.unit_operations
        requested = parse_store_spec(spec.state_store)
        planned = requested.planned_bytes(expected_states)
        if budget is None:
            return spec, planned, False
        remaining = budget - self._tenant_reserved(tenant)
        if planned <= remaining:
            return spec, planned, False
        # force the one store whose footprint is independent of the
        # state count: a bitstate array sized to what is left
        bits = max(0, (remaining // 2 - 1) * 8)
        if bits > 0:
            bits = 1 << (bits.bit_length() - 1)  # floor to a power of two
        if bits < MIN_FORCED_BITS:
            raise BudgetExceeded(
                tenant,
                needed=parse_store_spec(
                    f"bitstate:{MIN_FORCED_BITS},{FORCED_K}"
                ).planned_bytes(expected_states),
                remaining=remaining)
        forced_store = f"bitstate:{bits},{FORCED_K}"
        forced_spec = replace(spec, state_store=forced_store)
        return (forced_spec,
                parse_store_spec(forced_store).planned_bytes(expected_states),
                True)

    # ------------------------------------------------------------ stepping --
    def step(self) -> Optional[str]:
        """Advance one running job by one unit slice; admit first.

        Returns the job id advanced, or None when nothing is runnable.
        """
        self._admit()
        active_slots = [index for index, job_id in enumerate(self._slots)
                        if job_id is not None]
        if not active_slots:
            return None
        # round-robin across occupied slots so concurrent jobs interleave
        slot = min(active_slots,
                   key=lambda index: (index - self._round_robin)
                   % len(self._slots))
        self._round_robin = (slot + 1) % len(self._slots)
        job_id = self._slots[slot]
        try:
            self._run_slice(job_id, slot)
        except ServerError:
            raise
        except Exception as error:  # a broken campaign fails its job only
            self._fail(job_id, slot, error)
        return job_id

    def run_until_idle(self, max_steps: int = 100000) -> int:
        """Drive ``step()`` until no job is runnable; returns steps run."""
        steps = 0
        while steps < max_steps and self.step() is not None:
            steps += 1
        return steps

    @property
    def busy(self) -> bool:
        """True while any job is queued or holds a slot."""
        if any(slot is not None for slot in self._slots):
            return True
        return any(job.state == QUEUED for job in self.jobs.values())

    def _admit(self) -> None:
        for slot in range(len(self._slots)):
            if self._slots[slot] is not None:
                continue
            job_id = self._pop_queued()
            if job_id is None:
                return
            self._slots[slot] = job_id
            descriptor = self.jobs[job_id]
            runtime = self._runtimes[job_id]
            if runtime.service is None:
                runtime.service = VisitedStateService(
                    store=runtime.spec.state_store,
                    store_seed=runtime.spec.base_seed)
                if runtime.snapshot is not None:
                    runtime.service.import_snapshot(runtime.snapshot)
                    runtime.snapshot = None
            descriptor.state = RUNNING
            if descriptor.started_vtime is None:
                descriptor.started_vtime = self.clock.now
                self._emit("started", job_id, {"slot": slot})
            else:
                self._emit("resumed", job_id, {
                    "slot": slot,
                    "units_done": descriptor.units_done,
                    "visited_states": descriptor.visited_states,
                })
            self._save_spool(job_id)

    def _pop_queued(self) -> Optional[str]:
        while self._queue:
            _, _, job_id = heapq.heappop(self._queue)
            descriptor = self.jobs.get(job_id)
            if (descriptor is not None and descriptor.state == QUEUED
                    and job_id not in self._slots):
                return job_id
        return None

    def _run_slice(self, job_id: str, slot: int) -> None:
        descriptor = self.jobs[job_id]
        runtime = self._runtimes[job_id]
        if runtime.pause_requested:
            self._pause_now(job_id, slot)
            return
        if not runtime.pending:
            self._finish(job_id, slot)
            return
        # one slice: the next max(1, workers) pending units through the
        # one campaign runner -- forked workers for a fleet job, none
        # (units run here, inline) otherwise
        workers = descriptor.workers if descriptor.workers > 1 else 0
        batch = [runtime.pending.popleft()
                 for _ in range(min(max(1, workers), len(runtime.pending)))]

        def on_progress(unit_index: int, operations: int) -> None:
            self._emit("heartbeat", job_id,
                       {"unit": unit_index, "operations": operations})

        # pause snapshots cover the engine's durability needs, so inline
        # units' no-op checkpoints lose nothing
        completed = DistributedChecker(
            runtime.spec,
            workers=workers,
            config=WorkerConfig(
                heartbeat_operations=self.config.heartbeat_operations),
            units=batch,
            service=runtime.service,
            on_progress=on_progress,
        ).run()
        runtime.result.absorb(completed)
        for unit_result in completed.unit_results:
            descriptor.units_done += 1
            descriptor.operations += unit_result.operations
            self.clock.charge(unit_result.sim_time, "campaign")
            descriptor.visited_states = len(runtime.service.table)
            if unit_result.violation is not None:
                self._record_discrepancy(descriptor, runtime, unit_result)
            self._emit("progress", job_id, {
                "unit": unit_result.index,
                "units_done": descriptor.units_done,
                "units_total": descriptor.units_total,
                "operations": descriptor.operations,
                "visited_states": descriptor.visited_states,
            })
        if runtime.pause_requested:
            self._pause_now(job_id, slot)
        elif not runtime.pending:
            self._finish(job_id, slot)
        else:
            self._save_spool(job_id)

    def _record_discrepancy(self, descriptor: JobDescriptor,
                            runtime: _Runtime, unit_result) -> None:
        descriptor.discrepancies += 1
        self._emit("discrepancy", descriptor.job_id, {
            "unit": unit_result.index,
            "kind": unit_result.violation["kind"],
            "summary": unit_result.violation["summary"],
        })
        if self.config.trail_dir is None:
            return
        report = DiscrepancyReport.from_dict(unit_result.violation)
        if report.schedule is None:
            return

        def announce(path: str) -> None:
            descriptor.trail_paths.append(path)
            self._emit("trail", descriptor.job_id,
                       {"unit": unit_result.index, "path": path})

        capture_trail(
            report, runtime.spec, self.config.trail_dir,
            mode="random", seed=unit_result.seed,
            name=f"{descriptor.job_id}-unit{unit_result.index:03d}",
            notify=announce)

    # ------------------------------------------------------- state changes --
    def pause(self, job_id: str) -> JobDescriptor:
        """Request a pause; lands at the job's next unit boundary.

        A queued job pauses immediately (nothing is in flight); a
        running job finishes its current slice first, then snapshots.
        """
        descriptor = self._descriptor(job_id)
        if descriptor.state == PAUSED:
            return descriptor
        if descriptor.state == QUEUED:
            descriptor.state = PAUSED
            self._emit("paused", job_id, {"units_done": 0, "queued": True})
            self._save_spool(job_id)
            return descriptor
        if descriptor.state != RUNNING:
            raise InvalidTransition(job_id, descriptor.state, "pause")
        self._runtimes[job_id].pause_requested = True
        return descriptor

    def _pause_now(self, job_id: str, slot: int) -> None:
        descriptor = self.jobs[job_id]
        runtime = self._runtimes[job_id]
        runtime.pause_requested = False
        # the pause snapshot: visited store + frontier, in the same
        # versioned format crash-recovery checkpoints use -- resume and
        # daemon restart read one format
        runtime.snapshot = snapshot_document(
            runtime.service.table,
            operations_completed=descriptor.operations,
            seed=runtime.spec.base_seed,
            worker_id=job_id,
            frontier=[unit.index for unit in runtime.pending],
        )
        runtime.service = None  # release the live table: spool owns it
        self._slots[slot] = None
        descriptor.state = PAUSED
        self._emit("paused", job_id, {
            "units_done": descriptor.units_done,
            "units_total": descriptor.units_total,
            "visited_states": descriptor.visited_states,
        })
        self._save_spool(job_id)

    def resume(self, job_id: str) -> JobDescriptor:
        descriptor = self._descriptor(job_id)
        if descriptor.state != PAUSED:
            raise InvalidTransition(job_id, descriptor.state, "resume")
        descriptor.state = QUEUED
        heapq.heappush(self._queue,
                       (-descriptor.priority, self._submit_seq, job_id))
        self._submit_seq += 1
        self._save_spool(job_id)
        return descriptor

    def cancel(self, job_id: str) -> JobDescriptor:
        descriptor = self._descriptor(job_id)
        if descriptor.state in TERMINAL_STATES:
            raise InvalidTransition(job_id, descriptor.state, "cancel")
        if job_id in self._slots:
            self._slots[self._slots.index(job_id)] = None
        runtime = self._runtimes[job_id]
        runtime.service = None
        runtime.pause_requested = False
        descriptor.state = CANCELLED
        descriptor.finished_vtime = self.clock.now
        self._emit("cancelled", job_id,
                   {"units_done": descriptor.units_done})
        self._save_spool(job_id)
        return descriptor

    def _finish(self, job_id: str, slot: int) -> None:
        descriptor = self.jobs[job_id]
        runtime = self._runtimes[job_id]
        result = runtime.result
        # a job resumed with nothing left to run absorbed no slice since
        # its service was rebuilt from the snapshot
        result.table = runtime.service.table
        # from the units, not the slices: the units survive a restart
        result.cost_profile = merged_cost_profile(
            unit.cost_profile for unit in result.unit_results)
        result.trail_paths = list(descriptor.trail_paths)
        runtime.service = None
        self._slots[slot] = None
        descriptor.state = DONE
        descriptor.finished_vtime = self.clock.now
        descriptor.visited_states = result.visited_states
        self._emit("done", job_id, {
            "units_done": descriptor.units_done,
            "operations": descriptor.operations,
            "visited_states": descriptor.visited_states,
            "discrepancies": descriptor.discrepancies,
        })
        self._save_spool(job_id)

    def _fail(self, job_id: str, slot: int, error: Exception) -> None:
        descriptor = self.jobs[job_id]
        self._runtimes[job_id].service = None
        self._slots[slot] = None
        descriptor.state = FAILED
        descriptor.error = f"{type(error).__name__}: {error}"
        descriptor.finished_vtime = self.clock.now
        self._emit("failed", job_id, {"error": descriptor.error})
        self._save_spool(job_id)

    # -------------------------------------------------------------- queries --
    def _descriptor(self, job_id: str) -> JobDescriptor:
        descriptor = self.jobs.get(job_id)
        if descriptor is None:
            raise UnknownJob(job_id)
        return descriptor

    def job(self, job_id: str) -> JobDescriptor:
        return self._descriptor(job_id)

    def list_jobs(self) -> List[JobDescriptor]:
        return [self.jobs[job_id] for job_id in sorted(self.jobs)]

    def result(self, job_id: str) -> DistResult:
        descriptor = self._descriptor(job_id)
        if descriptor.state != DONE:
            raise InvalidTransition(job_id, descriptor.state,
                                    "fetch result of")
        return self._runtimes[job_id].result

    # ---------------------------------------------------------------- spool --
    def shutdown(self) -> None:
        """Graceful stop: pause every running job so the spool is whole."""
        for slot, job_id in enumerate(list(self._slots)):
            if job_id is not None:
                self._pause_now(job_id, slot)

    def _spool_path(self, job_id: str) -> str:
        return os.path.join(self.config.spool_dir, f"{job_id}.json")

    def _save_spool(self, job_id: str) -> None:
        if self.config.spool_dir is None:
            return
        descriptor = self.jobs[job_id]
        runtime = self._runtimes[job_id]
        snapshot = runtime.snapshot
        if snapshot is None and runtime.service is not None:
            # the job is live: spool a slice-boundary snapshot so a
            # crash (no graceful shutdown) still resumes with the
            # completed units' visited states instead of an empty table
            snapshot = snapshot_document(
                runtime.service.table,
                operations_completed=descriptor.operations,
                seed=runtime.spec.base_seed,
                worker_id=job_id,
                frontier=[unit.index for unit in runtime.pending],
            )
        document = {
            "spool_version": SPOOL_VERSION,
            "descriptor": descriptor.to_dict(),
            "submit_seq": runtime.submit_seq,
            "snapshot": snapshot,
            "pending": [unit.index for unit in runtime.pending],
            "unit_results": [unit.to_dict()
                             for unit in runtime.result.unit_results],
            "result": (runtime.result.to_dict()
                       if descriptor.state == DONE else None),
        }
        path = self._spool_path(job_id)
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(tmp_path, path)  # atomic: a crash keeps the old doc

    def _load_spool(self) -> None:
        """Rebuild the job table from spool documents (daemon restart).

        Paused jobs come back paused (their snapshot rides in the
        document); queued jobs re-queue in original submission order; a
        job spooled as *running* was interrupted without a graceful
        shutdown -- it re-queues with its completed units kept and the
        rest re-derived from the spec, which is exactly a resume.
        """
        entries = []
        for filename in sorted(os.listdir(self.config.spool_dir)):
            if not filename.endswith(".json"):
                continue
            with open(os.path.join(self.config.spool_dir, filename),
                      encoding="utf-8") as handle:
                entries.append(json.load(handle))
        for document in sorted(entries,
                               key=lambda entry: entry.get("submit_seq", 0)):
            descriptor = JobDescriptor.from_dict(document["descriptor"])
            spec = CheckSpec.from_dict(descriptor.spec)
            unit_results = [UnitResult.from_dict(entry)
                            for entry in document.get("unit_results", [])]
            snapshot = document.get("snapshot")
            frontier = (snapshot or {}).get("frontier",
                                            document.get("pending", []))
            if descriptor.state == RUNNING:
                # interrupted mid-run: completed units are kept, the
                # remainder recomputed; determinism makes this a resume
                done_indices = {unit.index for unit in unit_results}
                frontier = [unit.index for unit in spec.work_units()
                            if unit.index not in done_indices]
                descriptor.state = QUEUED
            by_index = {unit.index: unit for unit in spec.work_units()}
            pending = deque(by_index[index] for index in frontier
                            if index in by_index)
            runtime = _Runtime(
                spec=spec,
                pending=pending,
                submit_seq=int(document.get("submit_seq", 0)),
                snapshot=snapshot,
                # a finished job spooled its whole result; any other
                # resumes from the units it had completed
                result=(DistResult.from_dict(document["result"])
                        if document.get("result") is not None
                        else DistResult(workers=descriptor.workers,
                                        unit_results=unit_results)),
            )
            self.jobs[descriptor.job_id] = descriptor
            self._runtimes[descriptor.job_id] = runtime
            if descriptor.state == QUEUED:
                heapq.heappush(self._queue, (-descriptor.priority,
                                             runtime.submit_seq,
                                             descriptor.job_id))
            # keep counters ahead of everything reloaded
            self._submit_seq = max(self._submit_seq, runtime.submit_seq + 1)
            try:
                number = int(descriptor.job_id.rsplit("-", 1)[1])
            except (IndexError, ValueError):
                number = 0
            self._job_counter = max(self._job_counter, number)
            for vtime in (descriptor.finished_vtime,
                          descriptor.submitted_vtime):
                if vtime is not None and vtime > self.clock.now:
                    self.clock.charge(vtime - self.clock.now, "restored")
