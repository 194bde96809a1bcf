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
from typing import (Any, Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Set, Tuple)

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

    def twin_states(self) -> Sequence[str]:
        """Keys of the states that mirror the one last hashed (for
        partial-order reduction): states whose futures are the same up to
        a renaming the action set is closed under.

        Default: none.  MCFS returns the images under the catalog's name
        symmetries.
        """
        return ()

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


@dataclass
class _Frame:
    """One open DFS node: what a recursive activation would keep on the
    interpreter's stack, kept on the explorer's own stack instead."""

    state: str
    depth: int
    #: this run's memo row for ``state``: {slot: successor hash}
    successors: Dict[int, str]
    #: the sleep set (None without POR): the inherited one, then each
    #: visited sibling slot, added as the loop moves past it
    sleep: Optional[Set[int]]
    #: the action slot being visited
    slot: int = 0
    #: the node's checkpoint, armed lazily before an executed child and
    #: spent by the first restore: (recorder id, target token)
    armed: Optional[Tuple[int, Any]] = None
    #: the child reached through ``slot``, while its subtree is open
    child: Optional[str] = None


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
        #: always-on schedule log, a fresh one per run; on a violation the
        #: schedule is attached to the report so it can be captured as a trail
        self.recorder = TrailRecorder()
        self.stats = ExplorationStats()
        #: ``run_dfs``'s successor memo, emptied when the run ends: state ->
        #: (depth last expanded at, {slot: successor hash}); hashes interned
        #: (one string per state, not per edge), entries booked to the store's
        #: memory model at ``_memo_entry`` bytes (1 + |actions| hashes)
        self._memo: Dict[str, Tuple[int, Dict[int, str]]] = {}
        self._memo_entry = 0

    # ---------------------------------------------------------------- common --
    def _run(self, search: Callable[[], None]) -> ExplorationStats:
        """The envelope of a run in either mode: fresh stats and a fresh
        schedule, ``search()``, and a violation or an out-of-memory stop
        turned into the verdict."""
        stats = self.stats = ExplorationStats(start_time=self.clock.now)
        self.recorder = TrailRecorder(self.recorder.max_events)
        try:
            search()
        except PropertyViolation as violation:
            # a value now: its traceback's frames (this one's ``stats``
            # among them) would hold it, the DFS stack and the explorer
            # in a cycle until a full collection
            violation.__traceback__ = violation.__context__ = None
            stats.violation = violation
            stats.stopped_reason = "property violation"
            # hang the recorded schedule off the report (if any) so the
            # run's exact event sequence survives into the trail
            report = getattr(violation, "report", None)
            if report is not None and getattr(report, "schedule", None) is None:
                report.schedule = self.recorder.schedule()
        except OutOfMemoryError:
            stats.stopped_reason = "out of memory"
        stats.end_time = self.clock.now
        return stats

    def _budget_exceeded(self) -> Optional[str]:
        """The spent budget, if any, which also becomes the stop reason."""
        stats = self.stats
        if self.max_operations is not None and stats.operations >= self.max_operations:
            stats.stopped_reason = "operation budget"
        elif (
            self.max_unique_states is not None
            and stats.unique_states >= self.max_unique_states
        ):
            stats.stopped_reason = "state budget"
        elif (
            self.sim_time_budget is not None
            and self.clock.now - stats.start_time >= self.sim_time_budget
        ):
            stats.stopped_reason = "time budget"
        else:
            return None
        return stats.stopped_reason

    def _apply(self, action: Any) -> None:
        """Execute and count one action (PropertyViolation propagates)."""
        self.recorder.operation(action)
        self.target.apply(action)
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
        self.stats.transitions += 1

    def _record_state(self, depth: int = 0) -> Tuple[str, bool]:
        """Hash the current state; returns ``(hash, should it be expanded)``.

        Depth-aware: a known state re-reached at a shallower depth is
        expanded again (Spin's fix for depth-bounded search losing the
        subtrees of frontier states).
        """
        self.recorder.check()
        # the engine charges the syscall-walk and hash-encode sub-phases
        # itself; timed() nests exclusively, so this outer span keeps only
        # the residual combine/compare glue
        state_hash = self._timed("abstraction_hash", self.target.abstract_state)
        is_new, should_expand = self._timed(
            "fingerprint", self.visited.visit, state_hash, depth)
        if self.profile is not None:
            self.profile.note_state()
        if is_new:
            self.stats.unique_states += 1
        else:
            self.stats.revisited_states += 1
        self.target.note_state_visit(is_new)
        return state_hash, should_expand

    def _arm(self) -> Tuple[int, Any]:
        """Checkpoint the current state: the armed ``(recorder id, token)``
        a DFS frame or a walk's frontier holds until :meth:`_spend`."""
        checkpoint_id = self.recorder.checkpoint()
        token = self._timed("snapshot_restore", self.target.checkpoint)
        self.stats.checkpoints += 1
        return checkpoint_id, token

    def _spend(self, armed: Tuple[int, Any]) -> None:
        """Restore an armed checkpoint, which consumes its token."""
        checkpoint_id, token = armed
        self.recorder.restore(checkpoint_id)
        self._timed("snapshot_restore", self.target.restore, token)
        self.stats.restores += 1

    def _timed(self, bucket: str, function: Callable, *args) -> Any:
        """``function(*args)``, its wall time charged to ``bucket`` when a
        cost profile is on (measurement only)."""
        if self.profile is None:
            return function(*args)
        return self.profile.timed(bucket, function, *args)

    # ------------------------------------------------------------------ DFS --
    def run_dfs(self, por: bool = False) -> ExplorationStats:
        """Exhaustive bounded-depth search over all action permutations.

        ``por=True`` enables sleep-set partial-order reduction: when two
        actions commute (``target.independent``), only one interleaving
        order is explored -- the paper's "execute all permutations ...
        without duplication" (§2).  State coverage is preserved for
        commutative actions; the saved transitions can be substantial.
        It also records each state it expands together with its mirror
        images (``target.twin_states``) at the same depth, so a mirror
        reached later is not expanded again: the visited map stays the
        unreduced search's.

        With or without it, known-successor transitions are not re-executed
        and self-loop children not rolled back (``docs/architecture.md``).
        """
        return self._run(lambda: self._search(por))

    def _search(self, por: bool) -> None:
        """The DFS: one loop over an explicit stack of :class:`_Frame`."""
        stats, memo, max_depth = self.stats, self._memo, self.max_depth
        try:
            root, _ = self._record_state()
            if por:
                self._record_twins(0)
            # the action alphabet is the same in every state (the do..od
            # alternatives), so memo keys, sleep sets and the commutation
            # relation hold slots (positions in it), not actions; a row of
            # the relation (slot -> the slots independent of it) is built
            # on first use, so a run that stops early (a bug found in a
            # few operations) pays for few rows
            actions = list(self.target.actions())
            commutes: List[Optional[FrozenSet[int]]] = [None] * len(actions)
            self._memo_entry = 4 + len(root) * (1 + len(actions))
            budgeted = (self.max_operations is not None
                        or self.max_unique_states is not None
                        or self.sim_time_budget is not None)
            stack: List[_Frame] = []
            self._enter(stack, sys.intern(root), 0,
                        frozenset() if por else None)
            while stack:
                frame = stack[-1]
                slot, state, depth = frame.slot, frame.state, frame.depth
                if frame.child is not None:
                    # back from the child's subtree
                    if frame.child == state:
                        # a self-loop left the fs abstract-equal to this
                        # node: carry on from where it is, still armed
                        stats.restores_elided += 1
                    else:
                        self._spend(frame.armed)
                        frame.armed = None
                    frame.child = None
                elif slot == len(actions) or (budgeted
                                              and self._budget_exceeded()):
                    if frame.armed is not None:
                        # consume the token so no snapshot outlives its node
                        self._spend(frame.armed)
                    stack.pop()
                    continue
                elif frame.sleep is not None and slot in frame.sleep:
                    # an independent permutation already covered this order
                    stats.por_pruned += 1
                    frame.slot += 1
                    continue
                elif (known := frame.successors.get(slot)) is not None and (
                    known == state
                    or memo.get(known, (max_depth,))[0] <= depth + 1
                ):
                    # it would land on a state that needs no expansion from
                    # here (one never expanded sits at the depth bound): the
                    # table's own trust that equal states have equal futures
                    stats.memo_hits += 1
                else:
                    if frame.armed is None:
                        frame.armed = self._arm()
                    action = actions[slot]
                    self._apply(action)
                    child, should_expand = self._record_state(depth + 1)
                    frame.successors[slot] = frame.child = sys.intern(child)
                    if should_expand:
                        if por:
                            self._record_twins(depth + 1)
                        sleep = None
                        if frame.sleep is not None:
                            # classic sleep sets: earlier siblings that
                            # commute with `action` stay asleep in its subtree
                            row = commutes[slot]
                            if row is None:
                                row = commutes[slot] = frozenset(
                                    [other_slot for other_slot, other
                                     in enumerate(actions)
                                     if self.target.independent(action, other)])
                            sleep = row.intersection(frame.sleep)
                        self._enter(stack, frame.child, depth + 1, sleep)
                    continue
                if frame.sleep is not None:
                    frame.sleep.add(slot)
                frame.slot = slot + 1
            if not stats.stopped_reason:
                stats.stopped_reason = "state space exhausted"
        finally:
            if self.visited.memory is not None:
                self.visited.memory.release_bytes(len(memo) * self._memo_entry)
            memo.clear()

    def _record_twins(self, depth: int) -> None:
        """Record the mirror images of the state just recorded at
        ``depth``: its expansion covers theirs.  Each probe counts like a
        reached state (new or revisited), so ``revisited_states`` keeps
        agreeing with the table's duplicate hits and a new twin counts
        toward ``max_unique_states``."""
        stats, visit = self.stats, self.visited.visit
        for twin in self._timed("abstraction_hash", self.target.twin_states):
            if visit(twin, depth)[0]:
                stats.unique_states += 1
            else:
                stats.revisited_states += 1

    def _enter(self, stack: List[_Frame], state: str, depth: int,
               sleep: Optional[FrozenSet[int]]) -> None:
        """Push the frame expanding ``state`` (the abstract hash just
        recorded) at ``depth``, unless the depth bound or a budget stops
        the search there.  The loop's one expansion seam."""
        if depth >= self.max_depth or self._budget_exceeded():
            return
        # what this run executed from `state`, kept for its re-expansions
        memo = self._memo
        if state not in memo and self.visited.memory is not None:
            self.visited.memory.store_bytes(self._memo_entry)
        successors = memo[state][1] if state in memo else {}
        memo[state] = (depth, successors)
        stack.append(_Frame(state, depth, successors,
                            set(sleep) if sleep is not None else None))

    # --------------------------------------------------------------- random --
    def run_random(self, backtrack_probability: float = 0.25) -> ExplorationStats:
        """Seeded random walk with probabilistic backtracking.

        The walk's frontier is up to ``max_depth`` armed checkpoints, the
        entries a DFS frame holds.  A checked state is recorded at depth
        0, so ``should_expand`` (the depth-aware rule) also holds for a
        state known only deeper: it is frontier, and checkpointed while
        there is room.  On any other state, or by coin flip, the walk
        backtracks to a random saved checkpoint, mimicking the way a
        depth-bounded search keeps re-entering unexplored regions.
        """
        return self._run(lambda: self._walk(backtrack_probability))

    def _walk(self, backtrack_probability: float) -> None:
        frontier = [self._arm()]
        self._record_state()
        while not self._budget_exceeded():
            actions = list(self.target.actions())
            if not actions:
                self.stats.stopped_reason = "no enabled actions"
                break
            self._apply(self.target.choose_action(self.rng, actions))
            if self.stats.operations % self.state_check_every != 0:
                continue  # between amortised checks: straight-line walk
            _, should_expand = self._record_state()
            should_backtrack = (not should_expand) or (
                self.rng.random() < backtrack_probability
            )
            if should_expand and len(frontier) < self.max_depth:
                frontier.append(self._arm())
            elif should_backtrack:
                index = self.rng.randrange(len(frontier))
                # Replace the spent checkpoint with a fresh one of the
                # restored state so it can be revisited again.
                self._spend(frontier[index])
                frontier[index] = self._arm()
