"""The seven benchmark workloads.

Every workload drives ``repro`` through an entry point a user calls
(``CheckSpec.build_mcfs()`` -> ``MCFS.run_dfs/run_random``,
``DistributedChecker.run``, ``ReproClient.submit/watch/result``,
``replay_trail``/``minimize_trail``) and is split into *rounds*: one
round is one complete check at the workload's fixed size, built fresh
from a seed.  ``run.py`` repeats rounds with derived seeds until the
measuring window is full.

Why each workload exists is recorded in ``BENCHMARK.json`` (``why``)
and, at length, in ``README.md``.  The sizes here are the issue's sizes
scaled so that one round takes 1-2.5 s on the 2-core reference box
(DFS depth and the bug-hunt battery cannot be scaled and stay whole).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cli import BUG_PAIRS
from repro.dist import DistributedChecker
from repro.dist.coordinator import DistResult
from repro.dist.spec import CheckSpec
from repro.kernel.fdtable import O_CREAT, O_RDWR, O_TRUNC
from repro.mc.hashtable import VisitedStateTable
from repro.mc.statestore import make_store
from repro.server import EngineConfig, ReproClient, ReproServer
from repro.trail import Trail, minimize_trail, replay_trail

from tracer import DRIVER_METHODS, KERNEL_MOUNTS, KERNEL_SYSCALLS, Tracer

#: budgets are divided by this in ``--quick`` mode
QUICK_DIVISOR = 20

#: bug ids whose whole hunt+replay+minimise takes well under a second;
#: ``--quick`` hunts only these
QUICK_BUGS = ("missing-cache-invalidation", "size-update-on-capacity-only",
              "extent-boundary-stale")


@dataclass
class Round:
    """What one round found, plus the layer counters read afterwards."""

    verdict: str
    stopped: str
    operations: int
    states: int
    sim_s: float
    fingerprint: Optional[str] = None
    #: seconds the ops/s and states/s rates are taken over when that is
    #: not the whole round (``bug_hunt``: the hunts, not replay/minimise)
    rate_wall_s: Optional[float] = None
    #: extra verdict checks ``(label, passed)`` beyond verdict/stop/pins
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    #: additive layer counters from the program's public stats
    counts: Dict[str, float] = field(default_factory=dict)

    def identity(self) -> Dict[str, Any]:
        """The deterministic part: what pins and traced==untraced compare."""
        return {"operations": self.operations, "states": self.states,
                "fingerprint": self.fingerprint, "sim_s": self.sim_s}


class TraceCounters:
    """Counts only visible through a wrapper's return value."""

    def __init__(self) -> None:
        self.errnos = 0
        #: ``BufferCacheStats`` of every driver instance ever mounted
        #: (the remount strategy builds a new one per operation)
        self.cache_stats: List[Any] = []

    def note_outcome(self, outcome) -> None:
        if not outcome.ok:
            self.errnos += 1

    def note_driver(self, driver) -> None:
        cache = getattr(driver, "cache", None)
        if cache is not None:
            self.cache_stats.append(cache.stats)


def install_tracing(tracer: Tracer, counters: TraceCounters,
                    harnesses: List[Any], table_classes=()) -> None:
    """Wrap the public layer boundaries of everything ``harnesses`` use.

    ``harnesses`` are MCFS objects; they are only read to learn which
    strategy, driver and fs-type classes are in play.
    """
    from repro.core.engine import MCFSTarget
    from repro.core.futs import FilesystemUnderTest
    from repro.core.ops import OperationCatalog
    from repro.fuse.connection import FuseConnection
    from repro.fuse.server import FuseServerProcess
    from repro.kernel.kernel import Kernel
    from repro.mc.explorer import Explorer
    from repro.mc.strategies import CheckpointStrategy
    from repro.storage.device import BlockDevice, ChunkedStore

    patch = tracer.patch
    patch(Explorer, ("run_dfs", "run_random"), "mc.explorer.run")
    patch(MCFSTarget, ("apply",), "core.engine.apply", keep_durations=True)
    patch(MCFSTarget, ("abstract_state",), "core.engine.abstract_state")
    patch(MCFSTarget, ("checkpoint",), "core.engine.checkpoint")
    patch(MCFSTarget, ("restore", "restore_reusable"), "core.engine.restore")
    patch(OperationCatalog, ("execute",), "core.ops.execute",
          on_result=counters.note_outcome)
    patch(FilesystemUnderTest, ("entries_digests",),
          "core.abstraction.digests", keep_durations=True)
    patch(FilesystemUnderTest, ("snapshot_abstraction", "restore_abstraction"),
          "core.abstraction.token")
    for table_class in table_classes:
        patch(table_class, ("visit",), "mc.statestore.visit")
    patch(Kernel, KERNEL_SYSCALLS, "kernel.syscall", low=True)
    patch(Kernel, KERNEL_MOUNTS, "kernel.mount", low=True)
    patch(FuseConnection, ("send_dict",), "fuse.roundtrip", low=True)
    patch(FuseServerProcess, ("handle",), "verifs.handle", low=True)
    patch(BlockDevice, ("read", "write"), "storage.io", low=True)
    patch(ChunkedStore, ("snapshot_chunks",), "storage.snapshot", low=True)
    patch(ChunkedStore, ("restore_snapshot",), "storage.restore", low=True)
    base = (CheckpointStrategy,)  # its after_operation is an empty hook
    for mcfs in harnesses:
        for strategy in mcfs.strategies.values():
            kind = type(strategy)
            patch(kind, ("checkpoint",), "mc.strategies.checkpoint",
                  skip_defined_on=base)
            patch(kind, ("restore", "restore_reusable"),
                  "mc.strategies.restore", skip_defined_on=base)
            patch(kind, ("after_operation",), "mc.strategies.after_operation",
                  skip_defined_on=base)
        for fut in mcfs.futs:
            if fut.device is None:
                continue  # FUSE mounts are the fuse/verifs layers
            driver = fut.kernel.mount_at(fut.mountpoint).fs
            patch(type(driver), DRIVER_METHODS, "fs.driver", low=True)
            patch(type(fut.fstype), ("mount",), "fs.mount_scan", low=True,
                  on_result=counters.note_driver)


# ------------------------------------------------------------- harvesting --
def _fut_counters(mcfs) -> Dict[str, float]:
    """Additive public counters of a harness's futs, as of now."""
    counts: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        counts[name] = counts.get(name, 0) + value

    for fut in mcfs.futs:
        add("mc.strategies.remounts", fut.remount_count)
        dentries = fut.kernel.dcache.stats
        add("_dcache_hits", dentries.hits + dentries.negative_hits)
        add("_dcache_lookups",
            dentries.hits + dentries.negative_hits + dentries.misses)
        if fut.device is not None:
            device = fut.device.stats
            add("storage.read_requests", device.read_requests)
            add("storage.write_requests", device.write_requests)
            add("storage.bytes_written", device.bytes_written)
    return counts


def _table_counts(stats) -> Dict[str, float]:
    return {
        "mc.statestore.visits": stats.visits,
        "mc.statestore.inserts": stats.inserts,
        "mc.statestore.duplicate_hits": stats.duplicate_hits,
        "mc.statestore.stored_bytes": stats.stored_bytes,
        "mc.statestore.resizes": stats.resizes,
    }


def _mcfs_counts(mcfs, before: Dict[str, float], result) -> Dict[str, float]:
    """Layer counters of one ``MCFS.run_*`` call (after minus before)."""
    counts = {name: value - before.get(name, 0)
              for name, value in _fut_counters(mcfs).items()}
    stats = result.stats
    for name in ("transitions", "unique_states", "revisited_states",
                 "checkpoints", "restores", "por_pruned"):
        counts[f"mc.explorer.{name}"] = getattr(stats, name)
    counts["storage.bytes_snapshotted"] = result.bytes_snapshotted
    counts["storage.bytes_restored"] = result.bytes_restored
    counts["_logical_snapshot_bytes"] = result.logical_snapshot_bytes
    if result.table_stats is not None:
        counts.update(_table_counts(result.table_stats))
    return counts


def _dist_counts(result: DistResult) -> Dict[str, float]:
    units = result.unit_results
    counts = {
        "mc.explorer.transitions": sum(u.transitions for u in units),
        "mc.explorer.unique_states": result.visited_states,
        "mc.explorer.revisited_states": sum(u.revisited_states
                                            for u in units),
        "storage.bytes_snapshotted": result.bytes_snapshotted,
        "storage.bytes_restored": result.bytes_restored,
        "_logical_snapshot_bytes": sum(u.logical_snapshot_bytes
                                       for u in units),
        "dist.units": len(units),
        "dist.stolen_units": result.stolen_units,
        "dist.recovered_units": result.recovered_units,
        "dist.cross_worker_duplicates": result.cross_worker_duplicates,
        "_unit_wall_s": sum(u.wall_time for u in units),
    }
    counts.update(_table_counts(result.table.stats))
    return counts


def _merge(total: Dict[str, float], part: Dict[str, float]) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0) + value


def _verdict(report) -> str:
    return "clean" if report is None else report.kind


# --------------------------------------------------------------- workloads --
class Workload:
    """Base: a named series of independent, seed-built rounds."""

    name = "?"
    #: whether ``pins.json`` holds exact operations/states/fingerprint/
    #: sim time for this workload (False: a sound reduction may shrink
    #: the transition counts, so only verdict and stop reason are pinned)
    exact_pins = True

    def __init__(self, quick: bool = False):
        self.quick = quick

    def scaled(self, budget: int, floor: int = 20) -> int:
        return max(floor, budget // QUICK_DIVISOR) if self.quick else budget

    def setup(self, seed: int, workdir: str, traced: bool) -> Any:
        raise NotImplementedError

    def install(self, tracer: Tracer, counters: TraceCounters,
                harness) -> None:
        """Wrap the layer boundaries this workload's round will cross."""
        raise NotImplementedError

    def run(self, harness, seed: int, tracer: Optional[Tracer]) -> Round:
        raise NotImplementedError

    def close(self, harness) -> None:
        """Release what ``setup`` opened (sockets, threads)."""


class WalkWorkload(Workload):
    """One CheckSpec checked in-process through ``MCFS.run_*``."""

    def __init__(self, name: str, spec: CheckSpec, mode: str,
                 max_depth: int, budget: int = 0, por: bool = False,
                 prepopulate: Optional[Callable] = None,
                 quick: bool = False, quick_depth: Optional[int] = None):
        super().__init__(quick)
        self.name = name
        self.spec = spec
        self.mode = mode
        self.max_depth = (quick_depth if quick and quick_depth is not None
                          else max_depth)
        self.budget = self.scaled(budget)
        self.por = por
        self.prepopulate = prepopulate
        self.exact_pins = mode != "dfs"

    def setup(self, seed: int, workdir: str, traced: bool):
        mcfs = self.spec.build_mcfs()
        if self.prepopulate is not None:
            self.prepopulate(mcfs)
        table = make_store(self.spec.state_store) \
            if self.mode == "random" else None
        return mcfs, table

    def install(self, tracer: Tracer, counters: TraceCounters,
                harness) -> None:
        mcfs, table = harness
        # run_dfs builds its own (exact) table
        table_class = type(table) if table is not None else VisitedStateTable
        install_tracing(tracer, counters, [mcfs], (table_class,))

    def run(self, harness, seed: int, tracer: Optional[Tracer]) -> Round:
        mcfs, table = harness
        before = _fut_counters(mcfs)
        if self.mode == "dfs":
            result = mcfs.run_dfs(max_depth=self.max_depth, por=self.por)
        else:
            result = mcfs.run_random(max_operations=self.budget, seed=seed,
                                     max_depth=self.max_depth, visited=table)
        return Round(
            verdict=_verdict(result.report),
            stopped=result.stats.stopped_reason,
            operations=result.operations,
            states=result.unique_states,
            sim_s=result.sim_time,
            fingerprint=(table.visited_fingerprint()
                         if table is not None else None),
            counts=_mcfs_counts(mcfs, before, result),
        )


#: wide_tree_walk pre-population: 8 directories x 31 files (+ the 8
#: directories) = 256 entries, named so they never collide with a pool path
WIDE_DIRS = 8
WIDE_FILES_PER_DIR = 31


def prepopulate_wide_tree(mcfs) -> None:
    """Create the same cold tree on every fut through its kernel."""
    for fut in mcfs.futs:
        kernel, root = fut.kernel, fut.mountpoint
        for directory in range(WIDE_DIRS):
            dirname = f"{root}/p{directory:02d}"
            kernel.mkdir(dirname)
            for index in range(WIDE_FILES_PER_DIR):
                fd = kernel.open(f"{dirname}/c{index:02d}",
                                 O_CREAT | O_RDWR | O_TRUNC)
                kernel.write(fd, b"cold")
                kernel.close(fd)


class FleetWorkload(Workload):
    """``DistributedChecker(spec, workers=2).run()`` on real processes."""

    name = "fleet_2w"
    workers = 2

    def __init__(self, quick: bool = False):
        super().__init__(quick)
        self.spec = CheckSpec(
            filesystems=("verifs2", "verifs2"), pool="data-heavy",
            state_store="hc", data_plane="auto", units=16,
            unit_operations=self.scaled(500), max_depth=48)

    def setup(self, seed: int, workdir: str, traced: bool):
        # the traced run turns on the program's own per-state profiler:
        # it is the only view into the worker processes (ship bucket)
        return replace(self.spec, base_seed=seed, profile=traced)

    def install(self, tracer: Tracer, counters: TraceCounters,
                harness) -> None:
        # only the coordinator-side entry point: class-level wrappers
        # would be inherited by the forked workers, slowing them down
        # while their spans died with the process
        tracer.patch(DistributedChecker, ("run",), "dist.run")

    def run(self, spec, seed: int, tracer: Optional[Tracer]) -> Round:
        checker = DistributedChecker(spec, workers=self.workers)
        start = perf_counter()
        result = checker.run()
        wall = perf_counter() - start
        counts = _dist_counts(result)
        lanes = self.workers * wall
        counts["_worker_busy_s"] = sum(summary.wall_time for summary
                                       in result.worker_summaries)
        counts["_lane_s"] = lanes
        if result.cost_profile is not None:
            seconds = result.cost_profile["seconds"]
            counts["_ship_s"] = seconds["ship"]
            counts["_profiled_states"] = result.cost_profile["states"]
            # the worker-side buckets stand in for the spans we cannot
            # record across the process boundary
            counts["_profile.mc.statestore.visit_s"] = seconds["fingerprint"]
            counts["_profile.core.abstraction.digests_s"] = (
                seconds["abstraction_syscall"] + seconds["abstraction_hash"])
            counts["_profile.core.engine.checkpoint_s"] = \
                seconds["snapshot_restore"]
        return _dist_round(result, spec, counts)


def _dist_round(result: DistResult, spec: CheckSpec,
                counts: Dict[str, float]) -> Round:
    reasons = {unit.stopped_reason for unit in result.unit_results}
    complete = len(result.unit_results) == spec.units
    stopped = ("all units: " + ", ".join(sorted(reasons))) if complete \
        else f"{len(result.unit_results)}/{spec.units} units"
    reports = result.discrepancies
    return Round(
        verdict=_verdict(reports[0] if reports else None),
        stopped=stopped,
        operations=result.total_operations,
        states=result.visited_states,
        sim_s=result.sequential_sim_time,
        fingerprint=result.table.visited_fingerprint(),
        counts=counts,
    )


class ServedWorkload(Workload):
    """One job through an in-process ``ReproServer`` over a Unix socket."""

    name = "served_job"

    def __init__(self, quick: bool = False):
        super().__init__(quick)
        self.spec = CheckSpec(
            filesystems=("verifs1", "verifs2"), state_store="exact",
            units=16, unit_operations=self.scaled(375), max_depth=10)

    def setup(self, seed: int, workdir: str, traced: bool):
        # AF_UNIX paths are limited to ~100 bytes: address the socket
        # relative to the working directory, wherever the checkout lives
        socket_path = os.path.relpath(os.path.join(workdir, f"{seed}.sock"))
        server = ReproServer(
            socket_path=socket_path,
            config=EngineConfig(slots=1, spool_dir=os.path.join(
                workdir, f"spool-{seed}")))
        server.start()  # bind before the loop thread: no connect race
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ReproClient(socket_path=socket_path, timeout=170.0)
        return server, thread, client, replace(self.spec, base_seed=seed)

    def install(self, tracer: Tracer, counters: TraceCounters,
                harness) -> None:
        # the daemon builds each unit's harness itself: build one here
        # only to learn which classes it will be made of
        install_tracing(tracer, counters, [harness[3].build_mcfs()],
                        (VisitedStateTable,))

    def run(self, harness, seed: int, tracer: Optional[Tracer]) -> Round:
        _server, _thread, client, spec = harness
        start = perf_counter()
        job = client.submit(spec)
        first_event = None
        events = 0
        for _event in client.watch(job["job_id"]):
            if first_event is None:
                first_event = perf_counter()
            events += 1
        result = DistResult.from_dict(client.result(job["job_id"]))
        wall = perf_counter() - start
        state = client.job(job["job_id"])["state"]
        counts = _dist_counts(result)
        for name in [name for name in counts if name.startswith("dist.")]:
            del counts[name]  # no fleet here: the daemon runs units inline
        counts["server.submit_to_first_event_s"] = \
            (first_event if first_event is not None else start) - start
        counts["server.events"] = events
        counts["server.overhead_s"] = wall - counts["_unit_wall_s"]
        round_ = _dist_round(result, spec, counts)
        round_.checks.append(("job state done", state == "done"))
        return round_

    def close(self, harness) -> None:
        _server, thread, client, _spec = harness
        try:
            client.shutdown()
        finally:
            client.close()
            thread.join(timeout=30)
        if thread.is_alive():
            raise RuntimeError("the campaign daemon did not shut down")


class BugHuntWorkload(Workload):
    """Hunt every seeded bug, replay its trail, minimise it.

    One round is the whole battery (5 bugs x POR off/on); it is the
    same work for every seed, because DFS takes no seed.
    """

    name = "bug_hunt"
    exact_pins = False
    max_minimized_ops = 4

    def hunts(self) -> List[Tuple[str, bool]]:
        bugs = [bug for bug in BUG_PAIRS
                if not self.quick or bug in QUICK_BUGS]
        return [(bug, por) for bug in bugs for por in (False, True)]

    def setup(self, seed: int, workdir: str, traced: bool):
        trail_dir = os.path.join(workdir, f"trails-{seed}-{int(traced)}")
        os.makedirs(trail_dir, exist_ok=True)
        harnesses = []
        for bug, por in self.hunts():
            reference, buggy, depth, profile = BUG_PAIRS[bug]
            spec = CheckSpec(filesystems=(reference, buggy),
                             include_extended=False, verifs_bugs=(bug,),
                             input_profile=profile)
            mcfs = spec.build_mcfs()
            mcfs.options.trail_dir = trail_dir
            harnesses.append((bug, por, depth, mcfs))
        return harnesses

    def install(self, tracer: Tracer, counters: TraceCounters,
                harness) -> None:
        install_tracing(tracer, counters,
                        [mcfs for _bug, _por, _depth, mcfs in harness],
                        (VisitedStateTable,))

    def run(self, harness, seed: int, tracer: Optional[Tracer]) -> Round:
        def call(name, func, *args):
            if tracer is None:
                return func(*args)
            return tracer.call(name, func, *args)

        round_ = Round(verdict="", stopped="", operations=0, states=0,
                       sim_s=0.0, rate_wall_s=0.0)
        missed, reasons = [], set()
        for bug, por, depth, mcfs in harness:
            label = f"{bug}[por={int(por)}]"
            before = _fut_counters(mcfs)
            start = perf_counter()
            result = mcfs.run_dfs(max_depth=depth, max_operations=400_000,
                                  por=por)
            hunt_s = perf_counter() - start
            round_.rate_wall_s += hunt_s
            round_.operations += result.operations
            round_.states += result.unique_states
            round_.sim_s += result.sim_time
            reasons.add(result.stats.stopped_reason)
            _merge(round_.counts, _mcfs_counts(mcfs, before, result))
            _merge(round_.counts, {"trail.hunt_s": hunt_s})
            if not result.found_discrepancy or result.trail_path is None:
                missed.append(label)
                continue
            trail = Trail.load(result.trail_path)
            replayed = call("trail.replay", replay_trail, trail)
            round_.checks.append((f"{label} replay CONFIRMED",
                                  replayed.confirmed))
            minimized = call("trail.minimize", minimize_trail, trail)
            round_.checks.append((
                f"{label} minimised to <= {self.max_minimized_ops} ops",
                minimized.minimized_operations <= self.max_minimized_ops))
            _merge(round_.counts, {
                "trail.probes": minimized.probes,
                "trail.events_executed": minimized.events_executed,
                "trail.minimized_ops": minimized.minimized_operations,
            })
        round_.verdict = ("all bugs found" if not missed
                          else "missed: " + ", ".join(missed))
        round_.stopped = ", ".join(sorted(reasons))
        return round_


def make_workloads(quick: bool = False) -> Dict[str, Workload]:
    """The battery, in ``BENCHMARK.json`` order."""
    walks = [
        WalkWorkload(
            "verifs_dfs_por",
            CheckSpec(filesystems=("verifs1", "verifs2"), strategy="ioctl"),
            mode="dfs", max_depth=5, por=True, quick=quick, quick_depth=3),
        WalkWorkload(
            "ext_remount_walk",
            CheckSpec(filesystems=("ext2", "ext4"), strategy="remount",
                      pool="data-heavy"),
            mode="random", max_depth=64, budget=1600, quick=quick),
        WalkWorkload(
            "xfs_bigdev_walk",
            CheckSpec(filesystems=("ext4", "xfs")),
            mode="random", max_depth=12, budget=800, quick=quick),
        WalkWorkload(
            "wide_tree_walk",
            CheckSpec(filesystems=("verifs2", "verifs2"),
                      pool="metadata-heavy"),
            mode="random", max_depth=8, budget=500,
            prepopulate=prepopulate_wide_tree, quick=quick),
    ]
    battery: List[Workload] = list(walks)
    battery += [FleetWorkload(quick), ServedWorkload(quick),
                BugHuntWorkload(quick)]
    return {workload.name: workload for workload in battery}
