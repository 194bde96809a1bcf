"""State-space exploration: exhaustive DFS and randomized walks.

The explorer plays Spin's role: it drives an :class:`ExplorationTarget`
through its nondeterministic choices, matches states on their *abstract*
hashes (so equivalent states are explored once), and backtracks by
restoring *concrete* checkpoints -- exactly the ``c_track`` split of
section 3.3.

Two modes:

* :meth:`Explorer.run_dfs` -- bounded-depth exhaustive search over every
  permutation of enabled operations (the paper's primary mode);
* :meth:`Explorer.run_random` -- a seeded randomized walk with
  probabilistic backtracking, used for the long-horizon experiments
  (Figure 3, the five-day endurance run) and as what every unit of a
  :mod:`repro.dist` campaign (the swarm) runs.
"""

from __future__ import annotations

import random
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.clock import SimClock
from repro.mc.hashtable import AbstractVisitedTable, VisitedStateTable
from repro.mc.memory import OutOfMemoryError
from repro.mc.trace import TrailRecorder
from repro.util.fieldcodec import FieldCodec


class PropertyViolation(Exception):
    """Base class for violations that halt exploration.

    MCFS's integrity checker raises a subclass carrying the full
    discrepancy report; the explorer stops and surfaces it.
    """


class ExplorationTarget(ABC):
    """The system under exploration (MCFS wires the file systems in here)."""

    @abstractmethod
    def actions(self) -> Sequence[Any]:
        """Enabled actions in the current state (the do..od alternatives)."""

    @abstractmethod
    def apply(self, action: Any) -> None:
        """Execute one action; raise :class:`PropertyViolation` on a bug."""

    @abstractmethod
    def checkpoint(self) -> Any:
        """Capture the concrete state; returns an opaque token."""

    @abstractmethod
    def restore(self, token: Any) -> None:
        """Restore a previously captured concrete state."""

    @abstractmethod
    def abstract_state(self) -> str:
        """The abstraction-function hash of the current state."""

    def independent(self, first: Any, second: Any) -> bool:
        """True when the two actions commute (for partial-order reduction).

        Default: nothing commutes, which disables POR pruning.  MCFS
        overrides this with a path-disjointness test.
        """
        return False

    def choose_action(self, rng: random.Random, actions: Sequence[Any]) -> Any:
        """Pick the next action for a *random* walk.

        Default: instance-uniform, the classic draw.  MCFS overrides
        this with the weighted/coverage-steered chooser when an input
        profile is active.  All randomness must come from ``rng`` so a
        fixed seed still yields a fixed sequence.  DFS mode never calls
        this -- it visits every action.
        """
        return rng.choice(actions)

    def note_state_visit(self, is_new: bool) -> None:
        """Observe one visited-table probe (True = first visit).

        Default: ignore.  MCFS forwards this to coverage steering so
        generation can react to exploration stalling.
        """


@dataclass
class ExplorationStats(FieldCodec):
    """What happened during a run."""

    operations: int = 0
    transitions: int = 0
    unique_states: int = 0
    revisited_states: int = 0
    checkpoints: int = 0
    restores: int = 0
    #: transitions skipped by partial-order reduction (sleep sets)
    por_pruned: int = 0
    #: DFS transitions not executed because this run already knew their
    #: successor, and self-loop children left in place instead of restored
    memo_hits: int = 0
    restores_elided: int = 0
    #: per-state fsck oracle sweeps performed (``fsck_every``)
    fsck_checks: int = 0
    max_depth_reached: int = 0
    start_time: float = 0.0
    end_time: float = 0.0
    violation: Optional[PropertyViolation] = None
    stopped_reason: str = ""
    #: optional (sim_time, operations, swap_bytes) samples for rate plots
    samples: List[Tuple[float, int, int]] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.elapsed if self.elapsed > 0 else 0.0

    # ------------------------------------------------------- serialisation --
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form.  A violation is carried as its message plus
        the embedded :class:`~repro.core.report.DiscrepancyReport` (when
        it has one) -- everything a remote consumer can act on."""
        document = super().to_dict()
        if self.violation is not None:
            report = getattr(self.violation, "report", None)
            document["violation"] = {
                "message": str(self.violation),
                "report": report.to_dict() if report is not None else None,
            }
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "ExplorationStats":
        """Rebuild from :meth:`to_dict` output.  A violation with a
        report becomes a :class:`~repro.core.integrity.DiscrepancyError`
        again; one without stays a bare :class:`PropertyViolation`."""
        stats = super().from_dict(document)
        stats.samples = [tuple(sample) for sample in stats.samples]
        raw = stats.violation
        if raw is not None and raw.get("report") is not None:
            from repro.core.integrity import DiscrepancyError
            from repro.core.report import DiscrepancyReport

            stats.violation = DiscrepancyError(
                DiscrepancyReport.from_dict(raw["report"]))
        elif raw is not None:
            stats.violation = PropertyViolation(raw.get("message", ""))
        return stats


class Explorer:
    """Drives an ExplorationTarget through its state space."""

    def __init__(
        self,
        target: ExplorationTarget,
        clock: SimClock,
        visited: Optional[AbstractVisitedTable] = None,
        max_depth: int = 4,
        max_operations: Optional[int] = None,
        max_unique_states: Optional[int] = None,
        sim_time_budget: Optional[float] = None,
        seed: int = 0,
        sample_every: Optional[int] = None,
        sample_hook: Optional[Callable[[ExplorationStats], None]] = None,
        fsck_every: Optional[int] = None,
        fsck_oracle: Optional[Callable[[], Any]] = None,
        state_check_every: int = 1,
        profile=None,
    ):
        self.target = target
        self.clock = clock
        self.visited = visited if visited is not None else VisitedStateTable()
        self.max_depth = max_depth
        self.max_operations = max_operations
        self.max_unique_states = max_unique_states
        self.sim_time_budget = sim_time_budget
        self.rng = random.Random(seed)
        self.sample_every = sample_every
        self.sample_hook = sample_hook
        #: optional per-state corruption oracle (e.g.
        #: :class:`repro.analysis.oracle.FsckOracle`): called every
        #: ``fsck_every`` operations; raises PropertyViolation on a hit
        self.fsck_every = fsck_every
        self.fsck_oracle = fsck_oracle
        #: random mode: hash + cross-compare states only every N
        #: operations (N > 1 amortises the per-operation tree walk, the
        #: dominant cost of a random walk, at the price of delayed
        #: detection -- the discrepancy surfaces at the next check)
        self.state_check_every = max(1, state_check_every)
        #: optional :class:`repro.mc.perf.CostProfile`: wall time charged
        #: to abstraction-walk / fingerprint / snapshot-restore buckets
        #: (measurement only -- never feeds back into decisions)
        self.profile = profile
        #: always-on schedule log; on a violation the schedule is
        #: attached to the report so it can be captured as a trail
        self.recorder = TrailRecorder()
        self.stats = ExplorationStats()
        #: ``run_dfs``'s successor memo, emptied when the run ends: state ->
        #: (depth last expanded at, {action: successor hash}); hashes interned
        #: (one string per state, not per edge), entries booked to the store's
        #: memory model at ``_memo_entry`` bytes (1 + |actions| hashes)
        self._memo: Dict[str, Tuple[int, Dict[Any, str]]] = {}
        self._memo_entry = 0

    # ---------------------------------------------------------------- common --
    def _budget_exceeded(self) -> Optional[str]:
        if self.max_operations is not None and self.stats.operations >= self.max_operations:
            return "operation budget"
        if (
            self.max_unique_states is not None
            and self.stats.unique_states >= self.max_unique_states
        ):
            return "state budget"
        if (
            self.sim_time_budget is not None
            and self.clock.now - self.stats.start_time >= self.sim_time_budget
        ):
            return "time budget"
        return None

    def _note_operation(self) -> None:
        self.stats.operations += 1
        if (
            self.fsck_oracle is not None
            and self.fsck_every
            and self.stats.operations % self.fsck_every == 0
        ):
            self.stats.fsck_checks += 1
            self.recorder.fsck()
            self.fsck_oracle()  # PropertyViolation propagates: halt
        if self.sample_every and self.stats.operations % self.sample_every == 0:
            swap = 0
            if self.visited.memory is not None:
                swap = self.visited.memory.swap_used_bytes
            self.stats.samples.append(
                (self.clock.now, self.stats.operations, swap)
            )
            if self.sample_hook is not None:
                self.sample_hook(self.stats)

    def _record_state(self, depth: int = 0) -> Tuple[str, bool]:
        """Hash the current state; returns ``(hash, should it be expanded)``.

        Depth-aware: a known state re-reached at a shallower depth is
        expanded again (Spin's fix for depth-bounded search losing the
        subtrees of frontier states).
        """
        self.recorder.check()
        if self.profile is None:
            state_hash = self.target.abstract_state()
            is_new, should_expand = self.visited.visit(state_hash, depth)
        else:
            # the engine charges the syscall-walk and hash-encode
            # sub-phases itself; timed() nests exclusively, so this outer
            # span keeps only the residual combine/compare glue
            state_hash = self.profile.timed(
                "abstraction_hash", self.target.abstract_state)
            is_new, should_expand = self.profile.timed(
                "fingerprint", self.visited.visit, state_hash, depth)
            self.profile.note_state()
        if is_new:
            self.stats.unique_states += 1
        else:
            self.stats.revisited_states += 1
        self.target.note_state_visit(is_new)
        return state_hash, should_expand

    def _take_checkpoint(self) -> Any:
        if self.profile is not None:
            return self.profile.timed("snapshot_restore",
                                      self.target.checkpoint)
        return self.target.checkpoint()

    def _restore_checkpoint(self, token: Any) -> None:
        if self.profile is not None:
            self.profile.timed("snapshot_restore", self.target.restore, token)
            return
        self.target.restore(token)

    def _attach_schedule(self, violation: PropertyViolation) -> None:
        """Hang the recorded schedule off the violation's report (if any)
        so the run's exact event sequence survives into the trail."""
        report = getattr(violation, "report", None)
        if report is not None and getattr(report, "schedule", None) is None:
            report.schedule = self.recorder.schedule()

    # ------------------------------------------------------------------ DFS --
    def run_dfs(self, por: bool = False) -> ExplorationStats:
        """Exhaustive bounded-depth search over all action permutations.

        ``por=True`` enables sleep-set partial-order reduction: when two
        actions commute (``target.independent``), only one interleaving
        order is explored -- the paper's "execute all permutations ...
        without duplication" (§2).  State coverage is preserved for
        commutative actions; the saved transitions can be substantial.

        With or without it, known-successor transitions are not re-executed
        and self-loop children not rolled back (``docs/architecture.md``).
        """
        stats = self.stats = ExplorationStats(start_time=self.clock.now)
        try:
            root, _ = self._record_state()
            self._memo_entry = 4 + len(root) * (1 + len(self.target.actions()))
            self._dfs(sys.intern(root), 0, frozenset() if por else None)
            if not stats.stopped_reason:
                stats.stopped_reason = "state space exhausted"
        except PropertyViolation as violation:
            self.stats.violation = violation
            self.stats.stopped_reason = "property violation"
            self._attach_schedule(violation)
        except OutOfMemoryError:
            self.stats.stopped_reason = "out of memory"
        if self.visited.memory is not None:
            self.visited.memory.release_bytes(len(self._memo) * self._memo_entry)
        self._memo.clear()
        self.stats.end_time = self.clock.now
        return self.stats

    def _dfs(self, state: str, depth: int, sleep) -> None:
        """Expand ``state`` (the abstract hash just recorded) at ``depth``."""
        stats = self.stats
        stats.max_depth_reached = max(stats.max_depth_reached, depth)
        if depth >= self.max_depth:
            return
        reason = self._budget_exceeded()
        if reason:
            stats.stopped_reason = reason
            return
        # what this run executed from `state`, kept for its re-expansions
        memo = self._memo
        if state not in memo and self.visited.memory is not None:
            self.visited.memory.store_bytes(self._memo_entry)
        successors = memo[state][1] if state in memo else {}
        memo[state] = (depth, successors)
        actions = self.target.actions()
        # sleep-set candidates: the inherited sleep set plus every earlier
        # sibling, maintained incrementally (one append per action instead
        # of rebuilding `set(sleep) | set(explored)` for each one)
        candidates: Optional[List[Any]] = list(sleep) if sleep is not None else None
        # the node's checkpoint is armed lazily, before an executed child,
        # and spent by the first restore: (recorder id, target token)
        armed: Optional[Tuple[int, Any]] = None
        for action in actions:
            reason = self._budget_exceeded()
            if reason:
                stats.stopped_reason = reason
                break
            if sleep is not None and action in sleep:
                # an independent permutation already covered this order
                stats.por_pruned += 1
                continue
            known = successors.get(action)
            if known is not None and (
                known == state
                or memo.get(known, (self.max_depth,))[0] <= depth + 1
            ):
                # it would land on a state that needs no expansion from
                # here (one never expanded sits at the depth bound): the
                # table's own trust that equal states have equal futures
                stats.memo_hits += 1
            else:
                if armed is None:
                    armed = (self.recorder.checkpoint(), self._take_checkpoint())
                    stats.checkpoints += 1
                self.recorder.operation(action)
                self.target.apply(action)  # PropertyViolation propagates: halt
                self._note_operation()
                stats.transitions += 1
                child, should_expand = self._record_state(depth + 1)
                successors[action] = child = sys.intern(child)
                if should_expand:
                    child_sleep = None
                    if candidates is not None:
                        # classic sleep sets: earlier siblings that commute
                        # with `action` stay asleep in its subtree
                        child_sleep = frozenset(
                            other
                            for other in candidates
                            if self.target.independent(action, other)
                        )
                    self._dfs(child, depth + 1, child_sleep)
                if child == state:
                    # a self-loop left the fs abstract-equal to this node:
                    # carry on from where it is, the checkpoint stays armed
                    stats.restores_elided += 1
                else:
                    self._spend(armed)
                    armed = None
            if candidates is not None:
                candidates.append(action)
        if armed is not None:
            # consume the token so no snapshot outlives its node
            self._spend(armed)

    def _spend(self, armed: Tuple[int, Any]) -> None:
        """Restore a node's armed checkpoint, which consumes its token."""
        checkpoint_id, token = armed
        self.recorder.restore(checkpoint_id)
        self._restore_checkpoint(token)
        self.stats.restores += 1

    # --------------------------------------------------------------- random --
    def run_random(self, backtrack_probability: float = 0.25) -> ExplorationStats:
        """Seeded random walk with probabilistic backtracking.

        The walk keeps a bounded stack of checkpoints.  After each
        operation it records the abstract state; on revisiting a known
        state (or by coin flip) it backtracks to a random saved
        checkpoint, mimicking the way a depth-bounded search keeps
        re-entering unexplored regions.
        """
        self.stats = ExplorationStats(start_time=self.clock.now)
        checkpoints: List[Tuple[int, Any]] = [
            (self.recorder.checkpoint(), self._take_checkpoint())
        ]
        self.stats.checkpoints += 1
        try:
            self._record_state()
            while True:
                reason = self._budget_exceeded()
                if reason:
                    self.stats.stopped_reason = reason
                    break
                actions = list(self.target.actions())
                if not actions:
                    self.stats.stopped_reason = "no enabled actions"
                    break
                action = self.target.choose_action(self.rng, actions)
                self.recorder.operation(action)
                self.target.apply(action)
                self._note_operation()
                self.stats.transitions += 1
                if self.stats.operations % self.state_check_every != 0:
                    continue  # between amortised checks: straight-line walk
                _, is_new = self._record_state()
                should_backtrack = (not is_new) or (
                    self.rng.random() < backtrack_probability
                )
                if is_new and len(checkpoints) < self.max_depth:
                    checkpoints.append(
                        (self.recorder.checkpoint(), self._take_checkpoint())
                    )
                    self.stats.checkpoints += 1
                elif should_backtrack and checkpoints:
                    index = self.rng.randrange(len(checkpoints))
                    checkpoint_id, token = checkpoints[index]
                    # Replace the consumed checkpoint with a fresh one of
                    # the restored state so it can be revisited again.
                    self.recorder.restore(checkpoint_id)
                    self._restore_checkpoint(token)
                    self.stats.restores += 1
                    checkpoints[index] = (
                        self.recorder.checkpoint(), self._take_checkpoint()
                    )
                    self.stats.checkpoints += 1
        except PropertyViolation as violation:
            self.stats.violation = violation
            self.stats.stopped_reason = "property violation"
            self._attach_schedule(violation)
        except OutOfMemoryError:
            self.stats.stopped_reason = "out of memory"
        self.stats.end_time = self.clock.now
        return self.stats
