"""The MCFS harness: wire file systems, strategies, and the explorer.

Typical use::

    clock = SimClock()
    mcfs = MCFS(clock)
    mcfs.add_block_filesystem("ext2", Ext2FileSystemType(),
                              RAMBlockDevice(256 * 1024, clock=clock),
                              strategy=RemountStrategy())
    mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                              RAMBlockDevice(256 * 1024, clock=clock),
                              strategy=RemountStrategy())
    result = mcfs.run_dfs(max_depth=3)
    if result.found_discrepancy:
        print(result.report)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.clock import SimClock
from repro.core.abstraction import AbstractionOptions
from repro.core.engine import MCFSTarget, SyscallEngine
from repro.core.equalize import equalize_free_space
from repro.core.futs import FilesystemUnderTest, make_block_fut, make_verifs_fut
from repro.core.integrity import DiscrepancyError
from repro.core.ops import OperationCatalog, ParameterPool
from repro.core.report import DiscrepancyReport
from repro.mc.explorer import ExplorationStats, Explorer
from repro.mc.hashtable import TableStats
from repro.mc.memory import MemoryModel
from repro.mc.statestore import make_store
from repro.mc.strategies import CheckpointStrategy, IoctlStrategy, RemountStrategy


@dataclass
class MCFSOptions:
    """Configuration for a checking run."""

    abstraction: AbstractionOptions = field(default_factory=AbstractionOptions)
    pool: ParameterPool = field(default_factory=ParameterPool)
    #: include rename/symlink/link/xattr ops (off when VeriFS1 is tested)
    include_extended_operations: bool = True
    #: periodic fsck-style sweeps; None disables (they are expensive)
    consistency_check_every: Optional[int] = None
    #: equalize free space at startup (section 3.4 workaround)
    equalize_free_space: bool = False
    #: attach a RAM/swap memory model to the visited-state table
    memory_model: Optional[MemoryModel] = None
    #: abstraction for visited-state *matching* only (None = same as
    #: ``abstraction``); the §3.3 ablation passes a timestamp-tracking
    #: variant to model raw c_track buffer matching
    matching_abstraction: Optional[AbstractionOptions] = None
    #: with >= 3 file systems, vote on discrepancies to name the outlier
    #: (§7 future work)
    majority_voting: bool = False
    #: record behavioural coverage (operation/outcome pairs, §7)
    track_coverage: bool = False
    #: input-exploration profile spec (:mod:`repro.workload.profile`):
    #: ``uniform`` keeps the legacy instance-uniform draw; weighted bases
    #: plus ``+boundary`` / ``+steer`` flags diversify generation.  A
    #: boundary profile augments ``pool`` before the catalog is built.
    input_profile: str = "uniform"
    #: run the offline fsck oracle (repro.analysis) every N explored
    #: operations; None disables.  Unlike ``consistency_check_every``
    #: (the drivers' in-memory self-checks), this parses the raw device
    #: images, so it catches corruption the live driver cannot see.
    fsck_every: Optional[int] = None
    #: worker-pool width for the fsck oracle's image checks
    fsck_max_workers: Optional[int] = None
    #: pre-refactor checkpoint behaviour: full byte-image snapshots
    #: charged per *used* byte, and no incremental abstraction hashing.
    #: This is the paper's measured system; the Figure 2 reproduction and
    #: the COW benchmark's baseline run in this mode.
    legacy_snapshots: bool = False
    #: visited-state store spec: ``exact`` (full-hash table), ``hc[:bytes]``
    #: (hash compaction) or ``bitstate[:bits,k]`` (supertrace) -- see
    #: :mod:`repro.mc.statestore`
    state_store: str = "exact"
    #: hash seed for lossy stores (runs with different seeds omit
    #: different states; a fleet shares one so its tables can merge)
    store_seed: int = 0
    #: random mode: hash + cross-compare abstract states only every N
    #: operations (1 = classic per-operation checking).  Amortising the
    #: state walk raises throughput; detection is delayed to the next
    #: check, so the resulting trails carry long operation logs (which
    #: ``repro minimize`` then shrinks)
    state_check_every: int = 1
    #: write a self-contained ``*.trail.json`` counterexample here when a
    #: run finds a discrepancy (requires a spec-built harness); None
    #: disables capture
    trail_dir: Optional[str] = None
    #: attach a per-state cost profiler (:mod:`repro.mc.perf`): wall time
    #: charged to abstraction-syscall / abstraction-hash / fingerprint /
    #: ship / snapshot-restore buckets.  Measurement only -- cannot
    #: change what a run finds
    profile: bool = False


@dataclass
class MCFSResult:
    """Outcome of one checking run."""

    stats: ExplorationStats
    report: Optional[DiscrepancyReport]
    sim_time: float
    operations: int
    unique_states: int
    #: visited-table counters (inserts/duplicate hits) for the run, so
    #: reports can surface the table's duplicate-hit ratio
    table_stats: Optional[TableStats] = None
    #: bytes the devices' snapshot paths actually copied (dirty chunks
    #: for COW grabs, whole images in legacy mode)
    bytes_snapshotted: int = 0
    #: bytes rewritten by restores (diverged chunks only, for COW)
    bytes_restored: int = 0
    #: what a full-copy checkpointer would have copied: one whole device
    #: image per snapshot taken
    logical_snapshot_bytes: int = 0
    #: where the counterexample trail was written (``trail_dir`` set and
    #: a discrepancy found); None otherwise
    trail_path: Optional[str] = None
    #: per-state cost breakdown (:class:`repro.mc.perf.CostProfile`) when
    #: the run profiled; None otherwise
    cost_profile: Optional[Any] = None

    @property
    def found_discrepancy(self) -> bool:
        return self.report is not None

    @property
    def snapshot_dedup_ratio(self) -> float:
        """Logical-to-physical snapshot ratio (>= 1 means chunk sharing
        saved copies; 0.0 when no snapshot traffic was recorded)."""
        if self.bytes_snapshotted <= 0:
            return 0.0
        return self.logical_snapshot_bytes / self.bytes_snapshotted

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.sim_time if self.sim_time > 0 else 0.0

    @property
    def duplicate_hit_ratio(self) -> float:
        """Fraction of state visits the visited table answered as known."""
        return (self.table_stats.duplicate_hit_ratio
                if self.table_stats is not None else 0.0)

    @property
    def omission_possible(self) -> bool:
        """True when a lossy store may have silently skipped states."""
        return (self.table_stats.omission_possible
                if self.table_stats is not None else False)

    @property
    def omission_probability(self) -> float:
        """Per-query probability a fresh state was wrongly matched."""
        return (self.table_stats.omission_probability
                if self.table_stats is not None else 0.0)


class MCFS:
    """The model-checking framework for file systems."""

    def __init__(self, clock: Optional[SimClock] = None,
                 options: Optional[MCFSOptions] = None):
        self.clock = clock if clock is not None else SimClock()
        self.options = options if options is not None else MCFSOptions()
        self.futs: List[FilesystemUnderTest] = []
        self.strategies: Dict[str, CheckpointStrategy] = {}
        self._engine: Optional[SyscallEngine] = None
        #: picklable description of this harness (set by
        #: ``CheckSpec.build_mcfs``); trail capture embeds it
        self.spec = None

    # ------------------------------------------------------------- registry --
    def add_filesystem(self, fut: FilesystemUnderTest,
                       strategy: CheckpointStrategy) -> FilesystemUnderTest:
        if any(existing.label == fut.label for existing in self.futs):
            raise ValueError(f"duplicate file system label {fut.label!r}")
        self.futs.append(fut)
        self.strategies[fut.label] = strategy
        self._engine = None
        return fut

    def add_block_filesystem(self, label: str, fstype, device,
                             strategy: Optional[CheckpointStrategy] = None,
                             format_device: bool = True) -> FilesystemUnderTest:
        """Register a block/MTD file system (default strategy: remount)."""
        fut = make_block_fut(label, fstype, device, self.clock,
                             format_device=format_device)
        return self.add_filesystem(fut, strategy or RemountStrategy())

    def add_verifs(self, label: str, filesystem,
                   strategy: Optional[CheckpointStrategy] = None) -> FilesystemUnderTest:
        """Register a VeriFS instance (default strategy: ioctl)."""
        fut = make_verifs_fut(label, filesystem, self.clock)
        return self.add_filesystem(fut, strategy or IoctlStrategy())

    # ---------------------------------------------------------------- setup --
    def _incremental_allowed(self) -> bool:
        """Incremental abstraction hashing is sound only when neither the
        integrity nor the matching abstraction needs what the dirty-path
        tracking cannot see (timestamp churn, unsorted walks)."""
        from repro.core.abstraction import cacheable_options

        if self.options.legacy_snapshots:
            return False
        if not cacheable_options(self.options.abstraction):
            return False
        matching = self.options.matching_abstraction
        return matching is None or cacheable_options(matching)

    def _configure_futs(self) -> None:
        incremental = self._incremental_allowed()
        for fut in self.futs:
            fut.legacy_snapshots = self.options.legacy_snapshots
            fut.incremental_abstraction = incremental

    def _input_profile(self):
        from repro.workload.profile import parse_profile

        return parse_profile(self.options.input_profile)

    def engine(self) -> SyscallEngine:
        if self._engine is None:
            self._configure_futs()
            profile = self._input_profile()
            pool = self.options.pool
            if profile.boundary:
                from repro.workload.profile import boundary_parameters

                pool = boundary_parameters(pool)
            catalog = OperationCatalog(
                pool=pool,
                include_extended=self.options.include_extended_operations,
            )
            coverage = None
            if self.options.track_coverage or profile.steer:
                # steering consumes the tracker's counts, so a steered
                # run always carries one even with reporting off
                from repro.core.coverage import CoverageTracker

                coverage = CoverageTracker(catalog)
            self._engine = SyscallEngine(
                futs=self.futs,
                strategies=self.strategies,
                catalog=catalog,
                options=self.options.abstraction,
                consistency_check_every=self.options.consistency_check_every,
                memory_model=self.options.memory_model,
                matching_options=self.options.matching_abstraction,
                majority_voting=self.options.majority_voting,
                coverage=coverage,
            )
        return self._engine

    def coverage_report(self):
        """Behavioural coverage of the run so far (requires
        ``MCFSOptions.track_coverage=True``)."""
        tracker = self.engine().coverage
        if tracker is None:
            raise ValueError("coverage tracking is off; set "
                             "MCFSOptions.track_coverage=True")
        return tracker.report()

    def _prepare(self) -> MCFSTarget:
        if len(self.futs) < 2:
            raise ValueError("register at least two file systems before running")
        if self.options.equalize_free_space:
            equalize_free_space(self.futs)
        engine = self.engine()
        profile = self._input_profile()
        chooser = steering = None
        if not profile.is_instance_uniform:
            from repro.workload.profile import CoverageSteering, WeightedChooser

            if profile.steer:
                steering = CoverageSteering(engine.coverage)
            chooser = WeightedChooser(profile, engine.catalog.operations(),
                                      steering=steering)
        return MCFSTarget(engine, chooser=chooser, steering=steering)

    def _make_explorer(self, target: MCFSTarget,
                       state_file: Optional[str] = None,
                       visited=None, **kwargs) -> Explorer:
        self._resumed_operations = 0
        self._resumed_runs = 0
        if state_file is not None:
            from repro.mc.persistence import load_checker_state

            snapshot = load_checker_state(state_file,
                                          memory=self.options.memory_model)
            if snapshot is not None:
                visited = snapshot.visited
                self._resumed_operations = snapshot.operations_completed
                self._resumed_runs = snapshot.runs
        if visited is None:
            visited = make_store(self.options.state_store,
                                 memory=self.options.memory_model,
                                 seed=self.options.store_seed)
        if self.options.fsck_every:
            from repro.analysis.oracle import FsckOracle

            kwargs.setdefault("fsck_every", self.options.fsck_every)
            kwargs.setdefault("fsck_oracle", FsckOracle(
                self.engine(), max_workers=self.options.fsck_max_workers))
        if kwargs.get("profile") is None and self.options.profile:
            from repro.mc.perf import CostProfile

            kwargs["profile"] = CostProfile()
        # the engine splits the state-check span into syscall-walk vs
        # hash-encode sub-buckets; hand it the same profile
        engine = getattr(target, "engine", None)
        if engine is not None:
            engine.profile = kwargs.get("profile")
        return Explorer(target, self.clock, visited=visited, **kwargs)

    def _finish_run(self, explorer: Explorer, start: float,
                    state_file: Optional[str]) -> MCFSResult:
        if state_file is not None:
            from repro.mc.persistence import save_checker_state

            save_checker_state(
                state_file,
                explorer.visited,
                operations_completed=self._resumed_operations
                + explorer.stats.operations,
                runs=self._resumed_runs + 1,
            )
        result = self._result(explorer.stats, start,
                              table_stats=getattr(explorer.visited, "stats",
                                                  None))
        result.cost_profile = explorer.profile
        return result

    # ----------------------------------------------------------------- runs --
    def run_dfs(self, max_depth: int = 3, max_operations: Optional[int] = None,
                max_unique_states: Optional[int] = None,
                sample_every: Optional[int] = None,
                state_file: Optional[str] = None,
                por: bool = False) -> MCFSResult:
        """Exhaustive bounded search over all operation permutations.

        ``state_file`` makes the run resumable (§7 future work): the
        visited-state table is loaded from the file when it exists and
        saved back afterwards, so an interrupted campaign picks up
        without re-exploring covered states.

        ``por=True`` enables sleep-set partial-order reduction over
        path-disjoint operations (§2's "all permutations ... without
        duplication").
        """
        target = self._prepare()
        explorer = self._make_explorer(
            target, state_file=state_file,
            max_depth=max_depth, max_operations=max_operations,
            max_unique_states=max_unique_states, sample_every=sample_every,
        )
        start = self.clock.now
        explorer.run_dfs(por=por)
        result = self._finish_run(explorer, start, state_file)
        self._maybe_capture_trail(result, mode="dfs", seed=0)
        return result

    def run_random(self, max_operations: int, seed: int = 0,
                   max_depth: int = 64,
                   backtrack_probability: float = 0.25,
                   sample_every: Optional[int] = None,
                   sample_hook=None,
                   sim_time_budget: Optional[float] = None,
                   state_file: Optional[str] = None,
                   visited=None,
                   profile=None) -> MCFSResult:
        """Seeded randomized walk (long-horizon experiments).

        ``visited`` plugs in a custom visited table (any
        :class:`~repro.mc.hashtable.AbstractVisitedTable`); the
        distributed workers pass service-backed tables here.  This is
        one walk in this process; a campaign of many diversified walks
        is :class:`repro.dist.DistributedChecker` over the same spec.
        """
        target = self._prepare()
        explorer = self._make_explorer(
            target, state_file=state_file, visited=visited,
            max_depth=max_depth, max_operations=max_operations,
            seed=seed, sample_every=sample_every, sample_hook=sample_hook,
            sim_time_budget=sim_time_budget,
            state_check_every=self.options.state_check_every,
            profile=profile,
        )
        start = self.clock.now
        explorer.run_random(backtrack_probability=backtrack_probability)
        result = self._finish_run(explorer, start, state_file)
        self._maybe_capture_trail(result, mode="random", seed=seed)
        return result

    def _maybe_capture_trail(self, result: MCFSResult, mode: str,
                             seed: int) -> None:
        """Write the run's counterexample trail (``options.trail_dir``).

        Needs a spec-built harness: the trail embeds the CheckSpec so a
        replay can rebuild identical targets in any process.
        """
        if self.options.trail_dir is None or result.report is None:
            return
        if result.report.schedule is None or self.spec is None:
            return
        from repro.trail import capture_trail

        result.trail_path = capture_trail(
            result.report, self.spec, self.options.trail_dir,
            mode=mode, seed=seed,
        )

    def _result(self, stats: ExplorationStats, start_time: float,
                table_stats: Optional[TableStats] = None) -> MCFSResult:
        report: Optional[DiscrepancyReport] = None
        if isinstance(stats.violation, DiscrepancyError):
            report = stats.violation.report
        devices = [fut.device for fut in self.futs if fut.device is not None]
        return MCFSResult(
            stats=stats,
            report=report,
            sim_time=self.clock.now - start_time,
            operations=stats.operations,
            unique_states=stats.unique_states,
            table_stats=table_stats,
            bytes_snapshotted=sum(d.stats.bytes_snapshotted for d in devices),
            bytes_restored=sum(d.stats.bytes_restored for d in devices),
            logical_snapshot_bytes=sum(
                fut.logical_snapshot_bytes for fut in self.futs
            ),
        )
