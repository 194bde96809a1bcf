"""Swarm verification (Holzmann, Joshi & Groce): diversified explorers.

Spin's swarm technique runs many small verifications with diversified
search strategies (different seeds, depth bounds, and orderings) instead
of one monolithic search, and takes the union of their coverage.  The
paper lists swarm support as the mechanism for exploring larger state
spaces in parallel (sections 2 and 7).

This implementation runs the members sequentially but accounts time as
if they ran in parallel: the swarm's wall-clock is the *maximum* member
time, and coverage is the union of member coverage.  Two sharing modes:

* **classic** (default) -- every member keeps a private visited table
  and the union is computed afterwards; members may re-explore each
  other's territory, exactly like independent swarm processes.
* **cooperative** -- members share one visited table (pass
  ``cooperative=True``, optionally with a ``shared_table`` such as a
  :mod:`repro.dist` service-backed one), so a state explored by an
  earlier member is not expanded again by a later one.  Because members
  run sequentially the result is still deterministic.

For *real* parallel execution across processes, see
:class:`repro.dist.DistributedChecker`, which runs diversified work
units on a multiprocessing fleet backed by a shared visited-state
service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from repro.mc.explorer import ExplorationStats, Explorer
from repro.mc.hashtable import AbstractVisitedTable, TableStats, VisitedStateTable
from repro.mc.statestore import build_store, parse_store_spec


class RecordingTable(AbstractVisitedTable):
    """Wrap a shared table, recording which hashes *this* user inserted.

    Cooperative swarm members share one store but still report their own
    coverage; the recorder captures the hashes a member discovered first.
    """

    def __init__(self, inner: AbstractVisitedTable):
        self.inner = inner
        self.memory = inner.memory
        self.discovered: Set[str] = set()

    @property
    def stats(self):
        return self.inner.stats

    def visit(self, state_hash: str, depth: int = 0) -> Tuple[bool, bool]:
        is_new, should_expand = self.inner.visit(state_hash, depth)
        if is_new:
            self.discovered.add(state_hash)
        return is_new, should_expand

    def __len__(self) -> int:
        return len(self.inner)


@dataclass
class SwarmMemberResult:
    seed: int
    stats: ExplorationStats
    coverage: Set[str]
    sim_time: float
    #: the member's visited-store counters (omission accounting for
    #: lossy stores); shared in cooperative mode
    table_stats: Optional[TableStats] = None

    # ------------------------------------------------------- serialisation --
    def to_dict(self) -> dict:
        """JSON-ready form (coverage is sorted so the document -- like
        every merge in this repo -- is deterministic)."""
        return {
            "seed": self.seed,
            "sim_time": self.sim_time,
            "coverage": sorted(self.coverage),
            "stats": self.stats.to_dict(),
            "table_stats": (self.table_stats.to_dict()
                            if self.table_stats is not None else None),
        }

    @classmethod
    def from_dict(cls, document: dict) -> "SwarmMemberResult":
        raw_stats = document.get("table_stats")
        return cls(
            seed=int(document["seed"]),
            stats=ExplorationStats.from_dict(document.get("stats", {})),
            coverage=set(document.get("coverage", [])),
            sim_time=float(document.get("sim_time", 0.0)),
            table_stats=(TableStats.from_dict(raw_stats)
                         if raw_stats is not None else None),
        )


@dataclass
class SwarmResult:
    members: List[SwarmMemberResult] = field(default_factory=list)

    @property
    def union_coverage(self) -> Set[str]:
        union: Set[str] = set()
        for member in self.members:
            union |= member.coverage
        return union

    @property
    def parallel_time(self) -> float:
        """Wall-clock if members ran concurrently (max member time)."""
        return max((member.sim_time for member in self.members), default=0.0)

    @property
    def sequential_time(self) -> float:
        return sum(member.sim_time for member in self.members)

    @property
    def total_operations(self) -> int:
        return sum(member.stats.operations for member in self.members)

    @property
    def omission_possible(self) -> bool:
        """True when any member ran a lossy visited-state store."""
        return any(member.table_stats is not None
                   and member.table_stats.omission_possible
                   for member in self.members)

    @property
    def omission_probability(self) -> float:
        """Worst member omission probability (0.0 for exact stores)."""
        return max((member.table_stats.omission_probability
                    for member in self.members
                    if member.table_stats is not None), default=0.0)

    def first_violation(self):
        for member in self.members:
            if member.stats.violation is not None:
                return member.stats.violation
        return None

    # ------------------------------------------------------- serialisation --
    def to_dict(self) -> dict:
        return {"members": [member.to_dict() for member in self.members]}

    @classmethod
    def from_dict(cls, document: dict) -> "SwarmResult":
        return cls(members=[SwarmMemberResult.from_dict(entry)
                            for entry in document.get("members", [])])


class SwarmVerifier:
    """Runs N diversified explorations and merges their coverage.

    ``target_factory(seed)`` must build a *fresh* target (and its own
    clock) for each member -- swarm members are independent OS instances
    in the paper's setting.  It returns ``(target, clock)``.

    ``cooperative=True`` makes the members share one visited table, so
    later members skip (and never re-expand) states earlier members
    covered -- the sequential, in-process analogue of the shared
    visited-state service in :mod:`repro.dist`.  ``shared_table`` lets a
    caller supply that table (e.g. a service-backed one); it implies
    cooperative mode.
    """

    def __init__(
        self,
        target_factory: Callable[[int], tuple],
        members: int = 4,
        base_seed: int = 1,
        max_depth: int = 3,
        max_operations: Optional[int] = None,
        mode: str = "random",
        cooperative: bool = False,
        shared_table: Optional[AbstractVisitedTable] = None,
        state_store: str = "exact",
    ):
        if members < 1:
            raise ValueError("a swarm needs at least one member")
        if mode not in ("random", "dfs"):
            raise ValueError(f"unknown swarm mode {mode!r}")
        self.target_factory = target_factory
        self.members = members
        self.base_seed = base_seed
        self.max_depth = max_depth
        self.max_operations = max_operations
        self.mode = mode
        self.cooperative = cooperative or shared_table is not None
        self.shared_table = shared_table
        #: visited-store spec for *private* member tables.  Lossy specs
        #: are the classic Holzmann swarm+bitstate setup: each member
        #: hashes with its own seed, so members omit *different* states
        #: and the union recovers coverage one bounded member loses.
        self.store_spec = parse_store_spec(state_store)
        if self.cooperative and self.store_spec.kind != "exact":
            raise ValueError(
                "cooperative swarm shares one table; per-member lossy "
                "stores only apply to classic (non-cooperative) mode"
            )

    def run(self) -> SwarmResult:
        result = SwarmResult()
        shared: Optional[AbstractVisitedTable] = None
        if self.cooperative:
            # explicit None check: a fresh shared table is empty, hence falsy
            shared = (self.shared_table if self.shared_table is not None
                      else VisitedStateTable())
        for index in range(self.members):
            seed = self.base_seed + index * 7919  # diversified seeds
            target, clock = self.target_factory(seed)
            if shared is not None:
                visited: AbstractVisitedTable = RecordingTable(shared)
            elif self.store_spec.kind != "exact":
                # per-member diversified hashing: the member's store seed
                # is its swarm seed, so no two members share collisions;
                # the recorder captures full hashes for union coverage
                # (lossy stores cannot export their keys)
                visited = RecordingTable(
                    build_store(self.store_spec, seed=seed))
            else:
                visited = VisitedStateTable()
            explorer = Explorer(
                target,
                clock,
                visited=visited,
                # diversify depth bounds the way swarm scripts do
                max_depth=self.max_depth + (index % 3),
                max_operations=self.max_operations,
                seed=seed,
            )
            start = clock.now
            if self.mode == "dfs":
                stats = explorer.run_dfs()
            else:
                stats = explorer.run_random()
            if isinstance(visited, RecordingTable):
                coverage = set(visited.discovered)
            else:
                coverage = set(visited.export_seen())
            result.members.append(
                SwarmMemberResult(
                    seed=seed,
                    stats=stats,
                    coverage=coverage,
                    sim_time=clock.now - start,
                    table_stats=visited.stats,
                )
            )
            if stats.violation is not None:
                break  # a member found a bug: swarm reports and stops
        return result
