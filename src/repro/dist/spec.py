"""Picklable run descriptions: rebuild an MCFS harness in any process.

A live :class:`~repro.core.mcfs.MCFS` holds open devices, kernels, and
FUSE servers -- none of which survive a trip through ``pickle``.  A run
is therefore described by a :class:`CheckSpec` (plain names and
numbers): ``repro check`` builds one from its flags and runs it here
(:meth:`CheckSpec.run`), the distributed runtime ships it to each
worker, which rebuilds its own harness locally, the daemon queues it,
and every trail embeds it -- so all of them produce identical harnesses.

The spec also fixes the **work partition**: :meth:`CheckSpec.work_units`
derives a list of diversified, self-contained exploration units (seeded
like swarm members) whose count and parameters depend only on the spec
-- never on the worker fleet -- which is what makes the merged result
independent of worker count and scheduling.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.clock import SimClock
from repro.mc.records import parse_store_spec
from repro.mc.strategies import (
    IoctlStrategy,
    NoRemountStrategy,
    RemountStrategy,
    VfsCheckpointStrategy,
    VMSnapshotStrategy,
)
from repro.util.fieldcodec import FieldCodec
from repro.verifs import VeriFSBug

KB = 1024
MB = 1024 * KB

FILESYSTEMS = ("ext2", "ext4", "xfs", "jffs2", "verifs1", "verifs2")
#: kernel file systems get the remount strategy by default; VeriFS ioctl
KERNEL_FS = ("ext2", "ext4", "xfs", "jffs2")
#: the file systems a seeded bug can be injected into
VERIFS = ("verifs1", "verifs2")
BUG_IDS = frozenset(bug.value for bug in VeriFSBug)
STRATEGIES = {
    "remount": RemountStrategy,
    "no-remount": NoRemountStrategy,
    "vfs-api": VfsCheckpointStrategy,
    "ioctl": IoctlStrategy,
    "vm-snapshot": VMSnapshotStrategy,
}

#: the swarm seed stride (a prime, so diversified seeds never collide)
SEED_STRIDE = 7919

#: operation budget of a walk (or a whole campaign) given none
WALK_OPERATIONS = 1000


def _add_filesystem(mcfs, clock: SimClock, name: str, label: str,
                    strategy_name: Optional[str], bugs) -> None:
    """Register file system ``name`` on ``mcfs`` under ``label``."""
    from repro.fs import (
        Ext2FileSystemType,
        Ext4FileSystemType,
        Jffs2FileSystemType,
        XfsFileSystemType,
    )
    from repro.storage import RAMBlockDevice
    from repro.storage.mtd import MTDDevice
    from repro.verifs import VeriFS1, VeriFS2

    strategy = STRATEGIES[strategy_name]() if strategy_name else None
    if name in VERIFS:
        verifs = VeriFS1 if name == "verifs1" else VeriFS2
        mcfs.add_verifs(label, verifs(bugs=bugs), strategy=strategy)
        return
    fstype, device, size = {
        "ext2": (Ext2FileSystemType, RAMBlockDevice, 256 * KB),
        "ext4": (Ext4FileSystemType, RAMBlockDevice, 256 * KB),
        "xfs": (XfsFileSystemType, RAMBlockDevice, 16 * MB),
        "jffs2": (Jffs2FileSystemType, MTDDevice, 256 * KB),
    }[name]
    mcfs.add_block_filesystem(label, fstype(),
                              device(size, clock=clock, name=label),
                              strategy=strategy)


def unique_labels(names: List[str]) -> List[str]:
    """Disambiguate repeated fs names (``ext4 ext4`` -> ``ext4 ext42``)."""
    labels: List[str] = []
    for name in names:
        label = name
        suffix = 2
        while label in labels:
            label = f"{name}{suffix}"
            suffix += 1
        labels.append(label)
    return labels


@dataclass(frozen=True)
class WorkUnit:
    """One self-contained exploration: a seeded random walk with bounds.

    Units are the grain of distribution: deterministic in isolation
    (fresh file systems, own simulated clock, fixed seed and budgets),
    so any worker -- or a re-issued lease after a crash -- produces the
    identical per-unit result.
    """

    index: int
    seed: int
    max_depth: int
    max_operations: int
    backtrack_probability: float = 0.25
    #: input profile this unit explores with (fleet members diversify by
    #: profile as well as seed; fixed by the spec, not the fleet)
    input_profile: str = "uniform"


@dataclass(frozen=True)
class CheckSpec(FieldCodec):
    """A complete, picklable description of a checking run: the one
    search :meth:`run` executes in this process, or the campaign of
    seeded walks :meth:`work_units` partitions across a fleet.

    Every field is validated here, so an invalid run is refused where
    it is described -- by the CLI, at ``submit`` -- and never in a
    worker or a daemon slot.  Where a run writes (trail directory,
    state file) is not part of what it is, and stays outside."""

    filesystems: Tuple[str, ...]
    pool: str = "default"
    strategy: Optional[str] = None
    #: None = auto (extended ops unless verifs1 participates)
    include_extended: Optional[bool] = None
    equalize: bool = False
    voting: bool = False
    fsck_every: Optional[int] = None
    #: number of work units; fixed by the spec (NOT the worker count) so
    #: the merged result is identical for any fleet size
    units: int = 8
    base_seed: int = 1
    unit_operations: int = 400
    max_depth: int = 12
    backtrack_probability: float = 0.25
    #: VeriFS bug ids injected into the *last* file system (which must
    #: then be a verifs); lets distributed campaigns hunt a known bug
    verifs_bugs: Tuple[str, ...] = ()
    #: visited-state store spec (``exact | hc[:bytes] | bitstate[:bits,k]``);
    #: workers build their local tables from it and the coordinator's
    #: table derives the same record keys, so shipped keys agree
    #: fleet-wide (see :mod:`repro.mc.records`)
    state_store: str = "exact"
    #: random mode: hash + cross-compare abstract states only every N
    #: operations (1 = the classic per-operation check).  N > 1 trades
    #: detection latency for throughput -- and because detection is
    #: delayed, the counterexample trails it produces carry long
    #: operation logs, which is what the trail minimizer is for.
    state_check_every: int = 1
    #: retired: discoveries always travel as packed record batches.
    #: Still accepted (``auto`` | ``shm`` | ``rpc``) and stored nowhere,
    #: so specs written while a fleet had two data planes keep working
    data_plane: InitVar[str] = "auto"
    #: per-state cost profiling (:mod:`repro.mc.perf`): every unit
    #: reports wall time in abstraction-walk / fingerprint / ship /
    #: snapshot-restore buckets, merged campaign-wide.  Measurement
    #: only -- never changes what the fleet finds
    profile: bool = False
    #: input-exploration profile for every unit
    #: (:mod:`repro.workload.profile` grammar)
    input_profile: str = "uniform"
    #: when non-empty, unit ``i`` explores with ``profile_rotation[i %
    #: len]`` instead of ``input_profile`` -- fleet members diversify by
    #: input profile as well as seed.  A function of the unit index only,
    #: so merged fingerprints stay independent of fleet size.
    profile_rotation: Tuple[str, ...] = ()
    #: the search :meth:`run` executes: ``random`` is one walk seeded
    #: with ``base_seed``, ``dfs`` the exhaustive search to ``depth``.
    #: A campaign (:meth:`work_units`) partitions random walks only.
    mode: str = "random"
    #: DFS depth bound
    depth: int = 2
    #: sleep-set partial-order reduction (DFS only)
    por: bool = False
    #: operation budget of :meth:`run` (None: a DFS runs to exhaustion,
    #: a walk takes ``WALK_OPERATIONS``)
    max_ops: Optional[int] = None
    #: record behavioural coverage; the result carries its report
    coverage: bool = False

    def __post_init__(self, data_plane: str):
        if len(self.filesystems) < 2:
            raise ValueError("--fs must be given at least twice (MCFS "
                             "compares file systems)")
        if self.units < 1:
            raise ValueError("a run needs at least one work unit")
        for name in self.filesystems:
            if name not in FILESYSTEMS:
                raise ValueError(f"unknown file system {name!r}; see "
                                 f"'repro list'")
        for bug in self.verifs_bugs:
            if bug not in BUG_IDS:
                raise ValueError(f"unknown bug {bug!r}; see 'repro list'")
        if self.verifs_bugs and self.filesystems[-1] not in VERIFS:
            raise ValueError(f"injected bugs go into the last file system, "
                             f"which must be a verifs, not "
                             f"{self.filesystems[-1]!r}")
        if self.mode not in ("random", "dfs"):
            raise ValueError(f"unknown mode {self.mode!r}; expected "
                             f"random | dfs")
        if data_plane not in ("auto", "shm", "rpc"):
            raise ValueError(f"unknown data plane {data_plane!r}; "
                             f"expected auto | shm | rpc")
        parse_store_spec(self.state_store)  # fail fast on a bad spec
        from repro.workload.profile import parse_profile

        parse_profile(self.input_profile)
        for spec in self.profile_rotation:
            parse_profile(spec)

    # ------------------------------------------------------- serialisation --
    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "CheckSpec":
        """Rebuild a spec from ``to_dict`` output (trail files embed
        one); list-valued fields become the tuples a frozen, hashable
        spec needs."""
        return super().from_dict({
            key: tuple(value) if isinstance(value, list) else value
            for key, value in document.items()})

    # ------------------------------------------------------------- harness --
    def build_mcfs(self, trail_dir: Optional[str] = None):
        """Construct a fresh MCFS harness for this spec (any process);
        its counterexample trails go to ``trail_dir`` (None: none)."""
        from repro.core.mcfs import MCFS, MCFSOptions
        from repro.workload import preset

        clock = SimClock()
        extended = self.include_extended
        if extended is None:
            extended = all(name != "verifs1" for name in self.filesystems)
        options = MCFSOptions(
            include_extended_operations=extended,
            pool=preset(self.pool),
            input_profile=self.input_profile,
            equalize_free_space=self.equalize,
            majority_voting=self.voting,
            fsck_every=self.fsck_every,
            state_store=self.state_store,
            state_check_every=self.state_check_every,
            profile=self.profile,
            # one fleet-wide store seed: every worker's fingerprints must
            # match the campaign table's, so the spec's base seed is used
            # (per-member hash seeds suit swarm members that never pool
            # their tables; these do)
            store_seed=self.base_seed,
            track_coverage=self.coverage,
            trail_dir=trail_dir,
        )
        mcfs = MCFS(clock, options)
        labels = unique_labels(list(self.filesystems))
        last = len(self.filesystems) - 1
        for position, (name, label) in enumerate(zip(self.filesystems, labels)):
            bugs = [VeriFSBug(value) for value in self.verifs_bugs
                    if position == last]
            _add_filesystem(mcfs, clock, name, label, self.strategy, bugs)
        mcfs.spec = self
        return mcfs

    def run(self, trail_dir: Optional[str] = None,
            state_file: Optional[str] = None):
        """Run this spec's search in this process on a fresh harness.

        ``trail_dir`` receives the counterexample trail of a find and
        ``state_file`` makes the run resumable (see ``MCFS.run_dfs``).
        Returns the :class:`~repro.core.mcfs.MCFSResult`; with
        ``coverage`` set, ``result.coverage`` holds the report.
        """
        mcfs = self.build_mcfs(trail_dir=trail_dir)
        if self.mode == "dfs":
            return mcfs.run_dfs(max_depth=self.depth,
                                max_operations=self.max_ops,
                                state_file=state_file, por=self.por)
        return mcfs.run_random(
            max_operations=self.max_ops or WALK_OPERATIONS,
            seed=self.base_seed, state_file=state_file)

    # ------------------------------------------------------------ partition --
    def unit_profile(self, index: int) -> str:
        """The input profile unit ``index`` explores with."""
        if self.profile_rotation:
            return self.profile_rotation[index % len(self.profile_rotation)]
        return self.input_profile

    def work_units(self) -> List[WorkUnit]:
        """The deterministic unit list (seeds and depth bounds like swarm)."""
        if self.mode != "random":
            raise ValueError("--workers requires --mode random (distributed "
                             "campaigns partition seeded walks)")
        return [
            WorkUnit(
                index=index,
                seed=self.base_seed + index * SEED_STRIDE,
                max_depth=self.max_depth + (index % 3),
                max_operations=self.unit_operations,
                backtrack_probability=self.backtrack_probability,
                input_profile=self.unit_profile(index),
            )
            for index in range(self.units)
        ]

    def units_without(self, records) -> List[WorkUnit]:
        """The units no run record in ``records`` covers: what a resumed
        campaign runs (:mod:`repro.mc.persistence`'s resume rule)."""
        finished = {record.index for record in records}
        return [unit for unit in self.work_units()
                if unit.index not in finished]
