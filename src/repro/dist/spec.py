"""Picklable run descriptions: rebuild an MCFS harness in any process.

A live :class:`~repro.core.mcfs.MCFS` holds open devices, kernels, and
FUSE servers -- none of which survive a trip through ``pickle``.  The
distributed runtime therefore ships a :class:`CheckSpec` (plain names
and numbers) to each worker, which rebuilds its own harness locally,
exactly the way the CLI builds one from command-line flags.  The CLI
shares this registry so ``repro check`` and a worker constructing the
same spec produce identical harnesses.

The spec also fixes the **work partition**: :meth:`CheckSpec.work_units`
derives a list of diversified, self-contained exploration units (seeded
like swarm members) whose count and parameters depend only on the spec
-- never on the worker fleet -- which is what makes the merged result
independent of worker count and scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
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

KB = 1024
MB = 1024 * KB

FILESYSTEMS = ("ext2", "ext4", "xfs", "jffs2", "verifs1", "verifs2")
#: kernel file systems get the remount strategy by default; VeriFS ioctl
KERNEL_FS = ("ext2", "ext4", "xfs", "jffs2")
STRATEGIES = {
    "remount": RemountStrategy,
    "no-remount": NoRemountStrategy,
    "vfs-api": VfsCheckpointStrategy,
    "ioctl": IoctlStrategy,
    "vm-snapshot": VMSnapshotStrategy,
}

#: the swarm seed stride (a prime, so diversified seeds never collide)
SEED_STRIDE = 7919


def add_filesystem_by_name(mcfs, clock: SimClock, name: str, label: str,
                           strategy_name: Optional[str] = None,
                           verifs_bugs=None) -> None:
    """Register file system ``name`` on ``mcfs`` (the CLI/worker registry)."""
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
    bugs = verifs_bugs or []
    if name == "verifs1":
        mcfs.add_verifs(label, VeriFS1(bugs=bugs), strategy=strategy)
    elif name == "verifs2":
        mcfs.add_verifs(label, VeriFS2(bugs=bugs), strategy=strategy)
    elif name == "ext2":
        mcfs.add_block_filesystem(label, Ext2FileSystemType(),
                                  RAMBlockDevice(256 * KB, clock=clock, name=label),
                                  strategy=strategy)
    elif name == "ext4":
        mcfs.add_block_filesystem(label, Ext4FileSystemType(),
                                  RAMBlockDevice(256 * KB, clock=clock, name=label),
                                  strategy=strategy)
    elif name == "xfs":
        mcfs.add_block_filesystem(label, XfsFileSystemType(),
                                  RAMBlockDevice(16 * MB, clock=clock, name=label),
                                  strategy=strategy)
    elif name == "jffs2":
        mcfs.add_block_filesystem(label, Jffs2FileSystemType(),
                                  MTDDevice(256 * KB, clock=clock, name=label),
                                  strategy=strategy)
    else:
        raise ValueError(f"unknown file system {name!r}; "
                         f"expected one of {', '.join(FILESYSTEMS)}")


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
    """A complete, picklable description of a distributed checking run."""

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
    #: service derives the same record keys, so shipped keys agree
    #: fleet-wide (see :mod:`repro.mc.records`)
    state_store: str = "exact"
    #: random mode: hash + cross-compare abstract states only every N
    #: operations (1 = the classic per-operation check).  N > 1 trades
    #: detection latency for throughput -- and because detection is
    #: delayed, the counterexample trails it produces carry long
    #: operation logs, which is what the trail minimizer is for.
    state_check_every: int = 1
    #: distributed data plane for visited-state traffic: ``auto``
    #: resolves to shared-memory segments (:mod:`repro.mc.shardmem`)
    #: when the platform supports them (fork start method and
    #: ``multiprocessing.shared_memory``) and falls back to the batched
    #: pipe RPC plane otherwise; ``shm``/``rpc`` force a plane.  The
    #: plane never changes *what* is found -- only how discoveries
    #: travel.
    data_plane: str = "auto"
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

    def __post_init__(self):
        if len(self.filesystems) < 2:
            raise ValueError("a check needs at least two file systems")
        if self.units < 1:
            raise ValueError("a run needs at least one work unit")
        for name in self.filesystems:
            if name not in FILESYSTEMS:
                raise ValueError(f"unknown file system {name!r}")
        if self.data_plane not in ("auto", "shm", "rpc"):
            raise ValueError(f"unknown data plane {self.data_plane!r}; "
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
    def build_mcfs(self):
        """Construct a fresh MCFS harness for this spec (any process)."""
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
            fsck_max_workers=1,  # workers must not nest their own pools
            state_store=self.state_store,
            state_check_every=self.state_check_every,
            profile=self.profile,
            # one fleet-wide store seed: every worker's fingerprints must
            # match the service's, so the spec's base seed is used
            # (per-member hash seeds suit swarm members that never merge
            # their tables; these do)
            store_seed=self.base_seed,
        )
        mcfs = MCFS(clock, options)
        labels = unique_labels(list(self.filesystems))
        last = len(self.filesystems) - 1
        for position, (name, label) in enumerate(zip(self.filesystems, labels)):
            bugs = None
            if position == last and self.verifs_bugs:
                from repro.verifs import VeriFSBug

                bugs = [VeriFSBug(value) for value in self.verifs_bugs]
            add_filesystem_by_name(mcfs, clock, name, label, self.strategy,
                                   verifs_bugs=bugs)
        mcfs.spec = self
        return mcfs

    # ------------------------------------------------------------ partition --
    def unit_profile(self, index: int) -> str:
        """The input profile unit ``index`` explores with."""
        if self.profile_rotation:
            return self.profile_rotation[index % len(self.profile_rotation)]
        return self.input_profile

    def work_units(self) -> List[WorkUnit]:
        """The deterministic unit list (seeds and depth bounds like swarm)."""
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
