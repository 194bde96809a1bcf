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
  serialises the job as a :mod:`repro.mc.persistence` snapshot: its
  visited table and its finished units' records; resume -- in the same
  engine or a restarted one -- follows that module's resume rule: the
  snapshot's table, counters included, is the job's table, and the
  units still to run are the spec's units without a record;
* **events** -- every transition appends to a totally-ordered,
  virtual-time-stamped event log (:class:`~repro.server.protocol.JobEvent`);
  because the clock is virtual and the log depends only on the call
  sequence, a scripted multi-client scenario replays byte-identically.

Everything here is single-threaded and synchronous; the daemon
interleaves ``step()`` with socket polling.  A slice *is* a
:class:`~repro.dist.DistributedChecker` run over the next few pending
units, on the job's own visited table: a fleet of real processes for
jobs with ``workers > 1``, a fleet of zero (units run in this process)
otherwise.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from repro.clock import SimClock
from repro.core.mcfs import MCFSResult
from repro.dist.coordinator import (
    DistResult,
    DistributedChecker,
    merged_cost_profile,
)
from repro.dist.spec import CheckSpec
from repro.dist.worker import WorkerConfig
from repro.mc.hashtable import AbstractVisitedTable
from repro.mc.persistence import (
    read_document,
    snapshot_document,
    snapshot_from_document,
    unit_records,
    write_document,
)
from repro.mc.records import StoreFormatError, parse_store_spec, require
from repro.mc.statestore import make_store
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

    submit_seq: int
    #: the campaign so far: every slice's result absorbed into one; its
    #: ``unit_results`` are the job's finished units
    result: DistResult
    #: the job's visited table while it holds a slot
    table: Optional[AbstractVisitedTable] = None
    #: persistence document the table resumes from (set while paused
    #: and after a spool reload; loaded by the job's next slice)
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
        spec = request.spec
        spec.work_units()  # a spec no fleet can run is refused here
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
            spec=effective_spec,
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
        spec = descriptor.spec
        if runtime.table is None:
            # inside step()'s per-job guard: a snapshot the resume rule
            # refuses fails this job, not the daemon
            runtime.table = (
                make_store(spec.state_store, seed=spec.base_seed)
                if runtime.snapshot is None else snapshot_from_document(
                    runtime.snapshot, store=spec.state_store,
                    seed=spec.base_seed, spec=spec).visited)
            runtime.snapshot = None
        if runtime.pause_requested:
            self._pause_now(job_id, slot)
            return
        pending = spec.units_without(runtime.result.unit_results)
        if not pending:
            self._finish(job_id, slot)
            return
        # one slice: the next max(1, workers) pending units through the
        # one campaign runner -- forked workers for a fleet job, none
        # (units run here, inline) otherwise
        workers = descriptor.workers if descriptor.workers > 1 else 0
        batch = pending[:max(1, workers)]

        def on_progress(unit_index: int, operations: int) -> None:
            self._emit("heartbeat", job_id,
                       {"unit": unit_index, "operations": operations})

        # the engine's pause snapshots are the job's only durable state:
        # a unit cut short is re-run from its seed, never resumed
        completed = DistributedChecker(
            spec,
            workers=workers,
            config=WorkerConfig(
                heartbeat_operations=self.config.heartbeat_operations),
            trail_dir=self.config.trail_dir,
            units=batch,
            table=runtime.table,
            on_progress=on_progress,
        ).run()
        runtime.result.absorb(completed)
        for unit_result in completed.unit_results:
            descriptor.units_done += 1
            descriptor.operations += unit_result.operations
            self.clock.charge(unit_result.sim_time, "campaign")
            descriptor.visited_states = len(runtime.table)
            if unit_result.found_discrepancy:
                self._record_discrepancy(descriptor, unit_result)
            self._emit("progress", job_id, {
                "unit": unit_result.index,
                "units_done": descriptor.units_done,
                "units_total": descriptor.units_total,
                "operations": descriptor.operations,
                "visited_states": descriptor.visited_states,
            })
        if runtime.pause_requested:
            self._pause_now(job_id, slot)
        elif len(batch) == len(pending):
            self._finish(job_id, slot)
        else:
            self._save_spool(job_id)

    def _record_discrepancy(self, descriptor: JobDescriptor,
                            unit_result: MCFSResult) -> None:
        descriptor.discrepancies += 1
        self._emit("discrepancy", descriptor.job_id, {
            "unit": unit_result.index,
            "kind": unit_result.report.kind,
            "summary": unit_result.report.summary,
        })
        # the unit wrote its own trail (``trail_dir`` set)
        if unit_result.trail_path is None:
            return
        descriptor.trail_paths.append(unit_result.trail_path)
        self._emit("trail", descriptor.job_id,
                   {"unit": unit_result.index, "path": unit_result.trail_path})

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
        # the pause snapshot, in the format a campaign --state-file uses:
        # resume and daemon restart read one format
        runtime.snapshot = self._snapshot(job_id)
        runtime.table = None  # release the live table: the snapshot holds it
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
        runtime.table = None
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
        # its table was loaded from the snapshot
        result.table = runtime.table
        # from the units, not the slices: the units survive a restart
        result.cost_profile = merged_cost_profile(
            unit.cost_profile for unit in result.unit_results)
        runtime.table = None
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
        self._runtimes[job_id].table = None
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

    def _snapshot(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The job's snapshot document: its live table with its finished
        units' records, else the snapshot it resumes from (None before
        its first slice)."""
        descriptor = self.jobs[job_id]
        runtime = self._runtimes[job_id]
        if runtime.table is None:
            return runtime.snapshot
        return snapshot_document(
            runtime.table, operations_completed=descriptor.operations,
            spec=descriptor.spec, unit_results=runtime.result.unit_results)

    def _save_spool(self, job_id: str) -> None:
        if self.config.spool_dir is None:
            return
        descriptor = self.jobs[job_id]
        runtime = self._runtimes[job_id]
        document = {
            "spool_version": SPOOL_VERSION,
            "descriptor": descriptor.to_dict(),
            "submit_seq": runtime.submit_seq,
            # a live job's is a slice-boundary snapshot, so a crash (no
            # graceful shutdown) still resumes with its finished units
            "snapshot": self._snapshot(job_id),
            "result": (runtime.result.to_dict()
                       if descriptor.state == DONE else None),
        }
        write_document(os.path.join(self.config.spool_dir,
                                    f"{job_id}.json"), document)

    def _load_spool(self) -> None:
        """Rebuild the job table from spool documents (daemon restart).

        Every job keeps its finished units; the rest are the spec's
        others.  Paused jobs come back paused (their snapshot rides in
        the document); queued jobs re-queue in original submission
        order; a job spooled as *running* was interrupted without a
        graceful shutdown -- it re-queues, which is exactly a resume.
        """
        for filename in sorted(os.listdir(self.config.spool_dir)):
            if not filename.endswith(".json"):
                continue
            descriptor, runtime = _read_spool(
                os.path.join(self.config.spool_dir, filename))
            if descriptor.state == RUNNING:
                descriptor.state = QUEUED
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


def _read_spool(path: str):
    """One spool document, parsed as far as rebuilding its job needs:
    ``(descriptor, runtime)``.

    A torn or incomplete document, or a unit list a resume would
    mis-skip units on, raises :class:`StoreFormatError` naming the file
    and the field, so a daemon refuses to start on it with a message
    rather than a traceback.
    """
    document = read_document(path)
    try:
        submit_seq = int(document.get("submit_seq", 0))
        descriptor = JobDescriptor.from_dict(require(document, "descriptor"))
        snapshot = document.get("snapshot")
        if snapshot is not None and not snapshot.get("unit_results"):
            # spools from before snapshots recorded their units kept
            # them beside the snapshot
            snapshot = {**snapshot, "spec": descriptor.spec.to_dict(),
                        "unit_results": document.get("unit_results", [])}
        runtime = _Runtime(
            submit_seq=submit_seq,
            snapshot=snapshot,
            # a finished job spooled its whole result; any other
            # resumes from the units it had finished
            result=(DistResult.from_dict(document["result"])
                    if document.get("result") is not None
                    else DistResult(workers=descriptor.workers,
                                    unit_results=unit_records(
                                        (snapshot or {}).get(
                                            "unit_results", []),
                                        descriptor.spec))))
    except KeyError as error:
        raise StoreFormatError(
            f"{path}: missing field {error.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as error:
        raise StoreFormatError(f"{path}: {error}") from None
    return descriptor, runtime
