"""The file-system syscall engine: MCFS's nondeterministic test driver.

The engine is the analogue of the paper's Promela ``do .. od`` loop with
embedded C: it executes one selected operation on *every* file system
under test, runs the per-operation remounts the active strategies demand,
performs the integrity checks, and maintains the operation log that makes
discrepancy reports replayable.

Combined with an :class:`~repro.mc.explorer.Explorer`, it forms the
:class:`MCFSTarget` -- the ExplorationTarget MCFS hands to the model
checker.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.abstraction import AbstractionOptions, cacheable_options
from repro.core.integrity import DiscrepancyError, IntegrityChecker, Outcome, diff_entries
from repro.core.ops import Operation, OperationCatalog
from repro.core.report import DiscrepancyReport, LoggedOperation
from repro.errors import FsError
from repro.mc.explorer import ExplorationTarget


def combined_key(match_hashes: Sequence[str]) -> str:
    """The visited-table key of a state: its FUTs' matching hashes."""
    return hashlib.md5("|".join(match_hashes).encode("ascii")).hexdigest()


class SyscallEngine:
    """Executes operations across all FUTs and enforces integrity."""

    def __init__(
        self,
        futs: Sequence,
        strategies: Dict[str, Any],
        catalog: OperationCatalog,
        options: AbstractionOptions = AbstractionOptions(),
        consistency_check_every: Optional[int] = None,
        memory_model=None,
        matching_options: Optional[AbstractionOptions] = None,
        majority_voting: bool = False,
        coverage=None,
    ):
        #: optional RAM/swap model; checkpoint/restore charge one state
        #: touch each (Spin writes/reads the concrete state store too)
        self.memory_model = memory_model
        #: abstraction used for *visited-state matching*; defaults to the
        #: integrity abstraction.  The section 3.3 ablation passes a
        #: timestamp-tracking variant here to model raw c_track buffers.
        self.matching_options = matching_options
        #: with >= 3 file systems, vote to identify the outlier (§7)
        self.majority_voting = majority_voting
        #: optional CoverageTracker recording behavioural coverage (§7)
        self.coverage = coverage
        if len(futs) < 2:
            raise ValueError("MCFS compares file systems: register at least two")
        self.futs = list(futs)
        self.strategies = strategies
        self.catalog = catalog
        self.options = options
        self.checker = IntegrityChecker(options)
        self.consistency_check_every = consistency_check_every
        self.operation_log: List[LoggedOperation] = []
        self.operations_executed = 0
        self.starting_state = ""
        #: optional CostProfile; set by MCFS when profiling is on so the
        #: walk/hash split is charged where the work happens
        self.profile = None
        #: the last state combined_abstract_state() hashed: each FUT's
        #: held records (None on the cache route), its matching hashes
        #: and the combined key -- what twin keys are computed from
        self.last_hashed: Tuple[List, List[str], str] = ([], [], "")

    def strategy_for(self, fut):
        return self.strategies[fut.label]

    # ------------------------------------------------------------ execution --
    def run_operation(self, operation: Operation) -> LoggedOperation:
        """Execute one operation everywhere; check outcomes; log it."""
        outcomes: Dict[str, Outcome] = {}
        catalog, strategies = self.catalog, self.strategies
        for fut in self.futs:
            outcomes[fut.label] = catalog.execute(fut, operation)
            strategies[fut.label].after_operation(fut)
        logged = LoggedOperation(operation, outcomes)
        self.operation_log.append(logged)
        self.operations_executed += 1
        if self.coverage is not None:
            self.coverage.record(operation, outcomes)

        # labels are unique, so the dict holds the outcomes in fut order
        mismatch = self.checker.compare_outcomes(
            list(outcomes), list(outcomes.values()))
        if mismatch is not None:
            suspects: List[str] = []
            if self.majority_voting and len(self.futs) >= 3:
                from repro.core.voting import describe_verdict, vote_on_outcomes

                verdict = vote_on_outcomes(outcomes)
                mismatch += f" | {describe_verdict(verdict)}"
                suspects = verdict.suspects if verdict.decisive else []
            raise DiscrepancyError(
                self._report("outcome", mismatch, suspects=suspects)
            )

        if (
            self.consistency_check_every
            and self.operations_executed % self.consistency_check_every == 0
        ):
            self._run_consistency_checks()
        return logged

    def _run_consistency_checks(self) -> None:
        for fut in self.futs:
            problems = fut.check_consistency()
            if problems:
                raise DiscrepancyError(
                    self._report(
                        "corruption",
                        f"{fut.label} failed fsck-style checks: "
                        + "; ".join(problems[:5]),
                    )
                )

    # -------------------------------------------------------------- hashing --
    def combined_abstract_state(self) -> str:
        """Hash all FUT states together, asserting they match.

        This *is* the per-operation state integrity check: the walk that
        produces the visited-state hash is the same walk that compares
        the file systems, so each costs one traversal per fs, like MCFS.
        On the incremental route the records never leave the cache --
        the hash resumes from its Merkle prefix checkpoints.
        """
        options = self.options
        matching = self.matching_options or options
        profile = self.profile
        hashes: List[str] = []
        match_hashes: List[str] = []
        held: List[Optional[Sequence]] = []
        for fut in self.futs:
            try:
                records, state_hash, match_hash = fut.entries_digests(
                    options, matching, profile=profile
                )
            except FsError as error:
                raise DiscrepancyError(
                    self._report(
                        "corruption",
                        f"{fut.label} unreadable while hashing state: {error}",
                    )
                )
            held.append(records)
            hashes.append(state_hash)
            match_hashes.append(match_hash)

        reference = hashes[0]
        for index in range(1, len(hashes)):
            if hashes[index] != reference:
                fut = self.futs[index]
                def held_records(index: int):
                    # full-walk route: reuse the records collected above;
                    # cache route: the cache is synced, so this costs
                    # zero syscalls
                    records = held[index]
                    if records is None:
                        records = self.futs[index].collect_entries(
                            self.options)
                    return records
                diff = diff_entries(
                    held_records(0), held_records(index), self.options
                )
                summary = f"abstract states differ: {self.futs[0].label} vs {fut.label}"
                suspects: List[str] = []
                if self.majority_voting and len(self.futs) >= 3:
                    from repro.core.voting import describe_verdict, vote_on_states

                    verdict = vote_on_states(
                        dict(zip([f.label for f in self.futs], hashes))
                    )
                    summary += f" | {describe_verdict(verdict)}"
                    suspects = verdict.suspects if verdict.decisive else []
                raise DiscrepancyError(
                    self._report(
                        "state",
                        summary,
                        diff=diff,
                        ending_states=dict(
                            zip([f.label for f in self.futs], hashes)
                        ),
                        suspects=suspects,
                    )
                )
        self.checker.state_checks += 1
        state = combined_key(match_hashes)
        self.last_hashed = (held, match_hashes, state)
        return state

    # ------------------------------------------------------------- reports --
    def _report(self, kind: str, summary: str, diff=None, ending_states=None,
                suspects=None) -> DiscrepancyReport:
        ending = ending_states or {}
        if not ending:
            for fut in self.futs:
                try:
                    ending[fut.label] = fut.abstract_state(self.options)
                except FsError:
                    ending[fut.label] = "(unreadable)"
        return DiscrepancyReport(
            kind=kind,
            summary=summary,
            operation_log=list(self.operation_log),
            state_diff=diff,
            starting_state=self.starting_state,
            ending_states=ending,
            operations_executed=self.operations_executed,
            sim_time=self.futs[0].clock.now,
            suspects=list(suspects or []),
        )


class MCFSTarget(ExplorationTarget):
    """Adapts the engine + strategies to the explorer's target interface.

    ``chooser``/``steering`` (built by MCFS from the active input
    profile) redirect the explorer's random-mode draw through the
    weighted chooser; without them the target keeps the legacy
    instance-uniform draw, byte-identical to the pre-profile engine.
    """

    def __init__(self, engine: SyscallEngine, chooser=None, steering=None):
        self.engine = engine
        self.chooser = chooser
        self.steering = steering
        self._initialized = False
        #: hot-loop lanes, resolved once: the FUT set, each FUT's
        #: strategy, and whether its restore is exact are all fixed at
        #: setup time (bug injection happens at build, not mid-run), so
        #: checkpoint/restore need not re-derive them every state
        self._lanes = [
            (fut, engine.strategy_for(fut),
             engine.strategy_for(fut).restores_exactly(fut))
            for fut in engine.futs
        ]
        #: twin_states()'s renamings, found on its first call
        self._renamings: Optional[List[Tuple[Tuple[str, str], ...]]] = None

    def actions(self) -> Sequence[Operation]:
        return self.engine.catalog.operations()

    def apply(self, action: Operation) -> None:
        self.engine.run_operation(action)
        if self.steering is not None:
            self.steering.note_operation()

    def choose_action(self, rng, actions: Sequence[Operation]) -> Operation:
        if self.chooser is not None:
            return self.chooser.choose(rng)
        return rng.choice(actions)

    def note_state_visit(self, is_new: bool) -> None:
        if self.steering is not None:
            self.steering.note_state_visit(is_new)

    def checkpoint(self) -> Tuple[Dict[str, Any], int]:
        tokens: Dict[str, Any] = {}
        for fut, strategy, exact in self._lanes:
            state_token = strategy.checkpoint(fut)
            # capture the incremental abstraction cache alongside the
            # state -- but only when the strategy's restore is exact;
            # otherwise the rollback must distrust the cache and re-walk
            abstraction_token = (
                fut.snapshot_abstraction() if exact else None
            )
            tokens[fut.label] = (state_token, abstraction_token)
        if self.engine.memory_model is not None:
            self.engine.memory_model.touch_state()
        return tokens, len(self.engine.operation_log)

    def restore(self, token: Tuple[Dict[str, Any], int]) -> None:
        tokens, log_length = token
        for fut, strategy, _exact in self._lanes:
            state_token, abstraction_token = tokens[fut.label]
            strategy.restore(fut, state_token)
            # strategy restores mark the mount fully dirty; reinstating
            # the cache must come after (None forces a full re-walk)
            fut.restore_abstraction(abstraction_token)
        if self.engine.memory_model is not None:
            self.engine.memory_model.touch_state()
        del self.engine.operation_log[log_length:]

    def abstract_state(self) -> str:
        state = self.engine.combined_abstract_state()
        if not self._initialized:
            self.engine.starting_state = state
            self._initialized = True
        return state

    def twin_states(self) -> Tuple[str, ...]:
        """The keys of the other members of the last hashed state's orbit
        under the catalog's name symmetries, from the held records or the
        abstraction caches: no syscall."""
        engine = self.engine
        matching = engine.matching_options or engine.options
        if self._renamings is None:
            # every non-empty subset of the catalog's name symmetries,
            # swapped at once.  Only a sorted, timestamp-free abstraction
            # is invariant under renaming the records and sorting again
            pairs = (engine.catalog.name_symmetries()
                     if cacheable_options(matching) else ())
            self._renamings = [
                subset for size in range(1, len(pairs) + 1)
                for subset in combinations(pairs, size)]
        if not self._renamings:
            return ()
        held, match_hashes, state = engine.last_hashed
        twins: List[str] = []
        for pairs in self._renamings:
            # equal hashes hash equal records (the FUTs of a state that
            # passed its check all do): rename each distinct one once
            renamed: Dict[str, Optional[str]] = {}
            for fut, records, match_hash in zip(engine.futs, held,
                                                match_hashes):
                if match_hash not in renamed:
                    renamed[match_hash] = fut.renamed_digest(
                        records, matching, pairs)
            if all(digest is None for digest in renamed.values()):
                continue  # nothing under these names: the state itself
            twin = combined_key([renamed[match_hash] or match_hash
                                 for match_hash in match_hashes])
            if twin != state and twin not in twins:
                twins.append(twin)
        return tuple(twins)

    def independent(self, first: Operation, second: Operation) -> bool:
        """Path-disjointness independence for partial-order reduction."""
        return self.engine.catalog.independent(first, second)
