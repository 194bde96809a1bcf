"""Trail minimization: ddmin delta debugging over the checkpoint tree.

A ``run_random`` campaign with amortised state checking detects a bug
thousands of operations after the walk started, and a depth-bounded DFS
hunt records thousands of events of which all but the last few were
rolled back; the raw trail is a faithful reproducer but a hopeless
diagnostic.  This module shrinks it to a 1-minimal reproducer -- no
single event can be removed -- keeping any candidate that still raises
the *same* discrepancy (matched on the trail's structured signature,
which survives the value churn that deleting operations causes).

A schedule is a tree of ``CHECKPOINT id ... RESTORE id`` episodes
(:mod:`repro.mc.trace`), and it is minimized as one:

1. **Live-path projection.**  What is left once every completed episode
   is cancelled is tried first.  If restore is exact, that path ends in
   the very state the full schedule ends in, so for every bug that does
   not need a rollback to have *happened* it reproduces and the full
   schedule is never executed here at all.
2. **ddmin over atoms, coarse to fine** (:class:`_Reduction`).  Zeller's
   ddmin -- subsets, then complements, doubling granularity -- removes
   whole episodes first, then their children, single events last.
3. **A fresh harness per probe** (:class:`_FreshProber`).  Every probe
   builds its targets from the trail's spec and runs the candidate from
   the start, so nothing carries over between probes -- not even what a
   bug in restore itself leaves behind.  So an outcome is a function of
   the events alone, and each question is asked once.

:func:`minimize_trail_naive` is the one-event-at-a-time baseline, on the
same prober, that the ``BENCH_trail`` benchmark compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.mc import trace
from repro.trail.capture import Trail, describe_minimization, signature
from repro.trail.replay import TrailExecutor

Event = Tuple[Any, ...]


class _BudgetExceeded(Exception):
    """Raised by a prober when its probe budget runs out."""


@dataclass
class MinimizeResult:
    """Outcome of a minimization run."""

    #: the minimized trail (same spec, shrunken schedule, fresh report)
    trail: Trail
    probes: int
    #: schedule events actually executed across all probes (the work
    #: metric projection and coarse-to-fine ddmin reduce)
    events_executed: int
    original_operations: int
    minimized_operations: int
    original_events: int
    minimized_events: int
    #: True when the probe budget ran out before reaching 1-minimality
    #: (the result is still a valid, smaller reproducer)
    exhausted: bool = False
    #: the live path alone reproduced: ddmin never saw the full schedule
    projected: bool = False

    def stats(self) -> Dict[str, Any]:
        """How the probes ran (recorded in the minimized trail)."""
        return {"projected": self.projected}

    def describe(self) -> str:
        line = (f"minimized {self.original_operations} -> "
                f"{self.minimized_operations} operation(s) "
                f"({self.original_events} -> {self.minimized_events} events) "
                f"in {self.probes} probe(s), "
                f"{self.events_executed} event(s) executed")
        if self.exhausted:
            line += " [probe budget exhausted: not 1-minimal]"
        return f"{line}\nprobes: {describe_minimization(self.stats())}"


class _Reduction:
    """ddmin over the checkpoint tree, coarse to fine.

    The unit of removal is an *atom* (:func:`repro.mc.trace.atoms`): a
    whole top-level episode or a lone event.  When no atom can be
    removed, episodes split into their frame and children
    (:func:`repro.mc.trace.split`) and ddmin runs again; the last level
    is single events, so the result is 1-minimal.  Atoms are balanced,
    so only that last level can orphan a RESTORE and needs
    ``trace.normalize``'s filtering.

    ``atoms`` always holds the smallest reproducer found so far, also
    when the probe budget cuts the run short.
    """

    def __init__(self, events: List[Event], failing):
        self.events = events
        self.failing = failing
        self.atoms = trace.atoms(events, list(range(len(events))))
        self._single_events = False

    def schedule(self) -> List[Event]:
        return [self.events[position] for position in self._flatten(self.atoms)]

    @staticmethod
    def _flatten(atoms: List[List[int]]) -> List[int]:
        return sorted(position for atom in atoms for position in atom)

    def _shed_dominant(self) -> None:
        """Deal with an atom that holds more than half of the schedule.

        ddmin's chunks are only as even as its atoms; while one atom
        outweighs all others together, every probe that keeps it pays
        for all of it.  So it is judged first: one probe without it,
        and if the rest alone does not reproduce, it is split now
        rather than when this level has run dry.
        """
        while True:
            half = sum(len(atom) for atom in self.atoms) / 2
            heavy = next((atom for atom in self.atoms if len(atom) > half),
                         None)
            if heavy is None:
                return
            children = trace.split(self.events, heavy)
            if len(children) == 1:
                return
            rest = [atom for atom in self.atoms if atom is not heavy]
            if rest and self._try(rest):
                continue
            self.atoms = [child for atom in self.atoms
                          for child in (children if atom is heavy else [atom])]

    def _try(self, atoms: List[List[int]]) -> bool:
        """Probe the candidate ``atoms`` select; adopt it if it fails."""
        positions = self._flatten(atoms)
        if self._single_events:
            orphans = set(trace.orphan_restores(
                [self.events[position] for position in positions]))
            positions = [position for index, position in enumerate(positions)
                         if index not in orphans]
        if not positions:
            return False
        candidate = [self.events[position] for position in positions]
        failed = self.failing(candidate)
        if failed is None:
            return False
        # the violation may fire early: what follows it is dropped too
        alive = set(positions[:len(failed)])
        trimmed = ([position for position in atom if position in alive]
                   for atom in atoms)
        self.atoms = [atom for atom in trimmed if atom]
        return True

    def _ddmin(self) -> None:
        """Zeller's ddmin: subsets, then complements, doubling granularity."""
        n = 2
        while len(self.atoms) >= 2:
            chunks = _chunks(self.atoms, n)
            reduced = False
            for chunk in chunks:
                if self._try(chunk):
                    n, reduced = 2, True
                    break
            if not reduced and n > 2:
                # at n == 2 each complement IS the other chunk: skip
                for index in range(len(chunks)):
                    complement = [atom
                                  for position, chunk in enumerate(chunks)
                                  if position != index
                                  for atom in chunk]
                    if self._try(complement):
                        n, reduced = max(n - 1, 2), True
                        break
            if not reduced:
                if n >= len(self.atoms):
                    break
                n = min(len(self.atoms), n * 2)

    def run(self) -> None:
        while True:
            self._shed_dominant()
            self._ddmin()
            finer = [child for atom in self.atoms
                     for child in trace.split(self.events, atom)]
            if len(finer) == len(self.atoms):
                break  # only bare frames and single events are left
            self.atoms = finer
        singles = [[position] for position in self._flatten(self.atoms)]
        if len(singles) > len(self.atoms):
            self.atoms = singles
            self._single_events = True
            self._ddmin()


def _chunks(atoms: List[List[int]], n: int) -> List[List[List[int]]]:
    """Split into n runs of near-equal length (none empty)."""
    chunks: List[List[List[int]]] = []
    start = 0
    for index in range(n):
        end = start + (len(atoms) - start) // (n - index)
        if end > start:
            chunks.append(atoms[start:end])
        start = end
    return chunks


class _FreshProber:
    """ddmin's test function: every candidate runs on a harness freshly
    built from the trail's spec, so nothing carries over between probes.

    Returns the candidate cut after the event that raised the trail's
    own discrepancy (matched on its signature), or None when the
    candidate runs clean or fails some other way.  Candidates must be
    valid schedules (no orphan RESTORE).

    Each question is asked once, without a build when an executed
    candidate answers it: a prefix of a clean run is clean, and a
    candidate whose first ``i + 1`` events are those of a run that
    stopped at event ``i`` stops there too.  ``probes``,
    ``events_executed`` and the budget count executed probes only.
    """

    def __init__(self, spec, expected, max_probes: Optional[int]):
        self.spec = spec
        self.expected = expected
        self.max_probes = max_probes
        self.probes = 0
        self.events_executed = 0
        #: executed candidates: (events, index of the first violation or
        #: None when clean, whether it was the trail's own)
        self._answers: List[Tuple[List[Event], Optional[int], bool]] = []

    def __call__(self, events: List[Event]) -> Optional[List[Event]]:
        for ran, stop, reproduced in self._answers:
            if stop is None:
                if len(events) <= len(ran) and ran[:len(events)] == events:
                    return None
            elif len(events) > stop and events[:stop + 1] == ran[:stop + 1]:
                return events[:stop + 1] if reproduced else None
        if self.max_probes is not None and self.probes >= self.max_probes:
            raise _BudgetExceeded()
        self.probes += 1
        executor = TrailExecutor(self.spec)
        index, violation = executor.execute(events)
        self.events_executed += executor.events_executed
        report = getattr(violation, "report", None)
        reproduced = report is not None and signature(report) == self.expected
        self._answers.append(
            (events, None if violation is None else index, reproduced))
        return events[:index + 1] if reproduced else None


def _finalize(trail: Trail, minimized: List[Event], prober: _FreshProber,
              exhausted: bool, projected: bool = False) -> MinimizeResult:
    """Re-run the minimized schedule on a *fresh* harness and package the
    result as a new trail (clean report, correct digest)."""
    executor = TrailExecutor(trail.spec)
    index, violation = executor.execute(minimized)
    report = getattr(violation, "report", None)
    if report is None or signature(report) != prober.expected:
        raise RuntimeError(
            "minimized schedule failed to reproduce on a fresh harness; "
            "this is a determinism bug in the harness (run 'repro lint')")
    minimized = minimized[:index + 1]
    report.schedule = list(minimized)
    new_trail = Trail(
        spec=trail.spec,
        report=report,
        seed=trail.seed,
        minimized_from=trail.operations,
        probes=prober.probes,
    )
    result = MinimizeResult(
        trail=new_trail,
        probes=prober.probes,
        events_executed=prober.events_executed + executor.events_executed,
        original_operations=trail.operations,
        minimized_operations=new_trail.operations,
        original_events=trail.events,
        minimized_events=new_trail.events,
        exhausted=exhausted,
        projected=projected,
    )
    new_trail.minimization = result.stats()
    return result


def minimize_trail(trail: Trail,
                   max_probes: Optional[int] = 5000) -> MinimizeResult:
    """Shrink a trail to a 1-minimal reproducer.

    The schedule is a tree of checkpoint/restore episodes and is
    minimized as one: first its live path alone is probed (for every
    bug that does not depend on a rollback having happened, those few
    events *are* the reproducer and the full schedule is never run);
    what survives goes through ddmin over episode atoms, coarse to
    fine (:class:`_Reduction`), each probe on a freshly built harness.
    """
    events = trace.normalize(list(trail.report.schedule or []))
    if not events:
        raise ValueError("trail carries no schedule to minimize")
    failing = _FreshProber(trail.spec, trail.signature(), max_probes)

    path = trace.live_path(events)
    current = failing(path) if len(path) < len(events) else None
    projected = current is not None
    if not projected:
        current = failing(events)
        if current is None:
            raise ValueError(
                "trail does not reproduce here; refusing to minimize a "
                "flaky counterexample (replay it first: 'repro replay')")
    reduction = _Reduction(current, failing)
    exhausted = False
    try:
        reduction.run()
    except _BudgetExceeded:
        exhausted = True
    return _finalize(trail, reduction.schedule(), failing, exhausted,
                     projected=projected)


def minimize_trail_naive(trail: Trail,
                         max_probes: Optional[int] = 5000) -> MinimizeResult:
    """The baseline minimizer: delete one event at a time, re-executing
    every candidate from scratch on a freshly built harness.

    Exists for the ``BENCH_trail`` comparison; it reaches the same
    1-minimal answer but pays full re-execution per probe.
    """
    events = trace.normalize(list(trail.report.schedule or []))
    if not events:
        raise ValueError("trail carries no schedule to minimize")
    fresh = _FreshProber(trail.spec, trail.signature(), max_probes)

    def failing(candidate: List[Event]) -> Optional[List[Event]]:
        candidate = trace.normalize(candidate)
        return fresh(candidate) if candidate else None

    current = failing(events)
    if current is None:
        raise ValueError(
            "trail does not reproduce here; refusing to minimize a flaky "
            "counterexample (replay it first: 'repro replay')")
    exhausted = False
    try:
        changed = True
        while changed:
            changed = False
            index = 0
            while index < len(current):
                result = failing(current[:index] + current[index + 1:])
                if result is not None and len(result) < len(current):
                    current = result
                    changed = True
                else:
                    index += 1
    except _BudgetExceeded:
        exhausted = True
    return _finalize(trail, current, fresh, exhausted)
