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
3. **An exact prefix cache** (:class:`_Prober`).  Candidates share long
   prefixes, so one long-lived harness snapshots itself every
   ``checkpoint_every`` events (copy-on-write ``snapshot_chunks()``
   grabs for block devices, re-armable ioctl keys for VeriFS) and each
   probe rewinds to the longest cached prefix and re-executes only the
   suffix.

:func:`minimize_trail_naive` is the deliberately cache-less
one-event-at-a-time baseline the ``BENCH_trail`` benchmark compares
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.mc import trace
from repro.mc.explorer import PropertyViolation
from repro.trail.capture import Trail, describe_minimization, signature
from repro.trail.replay import TrailExecutor

Event = Tuple[Any, ...]


#: prefix digests live below this (a Mersenne prime)
_DIGEST_MODULUS = (1 << 61) - 1


class _BudgetExceeded(Exception):
    """Raised by a prober when its probe budget runs out."""


@dataclass
class MinimizeResult:
    """Outcome of a minimization run."""

    #: the minimized trail (same spec, shrunken schedule, fresh report)
    trail: Trail
    probes: int
    #: schedule events actually executed across all probes (the work
    #: metric prefix caching reduces)
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
    #: probes served by the long-lived prefix-cached harness / by a
    #: freshly built one (confirmations and the polluted fallback)
    cached_probes: int = 0
    fresh_probes: int = 0
    #: cached probes that started from a cached prefix, not from scratch
    cache_hits: int = 0
    #: probe count at which the cached harness was given up -- it
    #: contradicted a fresh one, or the bug turned out to need rollbacks
    #: (so restore itself is suspect) -- and all later probes ran fresh
    polluted_at: Optional[int] = None

    def stats(self) -> Dict[str, Any]:
        """How the probes were served (recorded in the minimized trail)."""
        return {
            "projected": self.projected,
            "cached_probes": self.cached_probes,
            "fresh_probes": self.fresh_probes,
            "cache_hits": self.cache_hits,
            "polluted_at": self.polluted_at,
        }

    def describe(self) -> str:
        line = (f"minimized {self.original_operations} -> "
                f"{self.minimized_operations} operation(s) "
                f"({self.original_events} -> {self.minimized_events} events) "
                f"in {self.probes} probe(s), "
                f"{self.events_executed} event(s) executed")
        if self.exhausted:
            line += " [probe budget exhausted: not 1-minimal]"
        return f"{line}\nprobes: {describe_minimization(self.stats())}"


class _Prober:
    """Runs candidate schedules against one long-lived harness.

    The harness is rebuilt never; every probe rewinds to the pristine
    initial snapshot or to the longest cached prefix of its candidate.
    A cache entry is a full :meth:`TrailExecutor.snapshot` -- target
    token, operation-log copy *and* the checkpoint-id bindings valid at
    that prefix -- so a ``RESTORE id`` in the re-executed suffix rolls
    back to the checkpoint this candidate's own prefix took, never to
    one an earlier candidate left under the same id.

    Entries are keyed by ``(length, rolling digest)`` of the prefix, so
    finding the longest cached prefix is one pass over the candidate.
    """

    def __init__(self, spec, checkpoint_every: int = 64,
                 cache_limit: int = 48):
        self.executor = TrailExecutor(spec)
        self.checkpoint_every = checkpoint_every
        self.cache_limit = cache_limit
        self.probes = 0
        self.events_executed = 0
        self.cache_hits = 0
        #: pristine initial state: every probe starts here or later
        self._base = self.executor.snapshot()
        #: prefix key -> executor snapshot, oldest first
        self._cache: Dict[Tuple[int, int], Any] = {}
        self._codes: Dict[Event, int] = {}

    def _prefix_keys(self, events: List[Event]) -> List[Tuple[int, int]]:
        """``(length, digest)`` of every prefix: a polynomial rolling
        hash over per-event codes handed out in order of first sight
        (no ``hash()``: its values differ from process to process)."""
        keys: List[Tuple[int, int]] = []
        codes = self._codes
        digest = 0
        for length, event in enumerate(events, 1):
            code = codes.setdefault(event, len(codes) + 1)
            digest = (digest * 1_000_003 + code) % _DIGEST_MODULUS
            keys.append((length, digest))
        return keys

    def run(self, events: List[Event]) -> Tuple[int, Optional[PropertyViolation]]:
        """Execute one candidate; same contract as TrailExecutor.execute."""
        self.probes += 1
        executor = self.executor
        keys = self._prefix_keys(events)
        start, snapshot = 0, self._base
        for key in reversed(keys):
            if key in self._cache:
                start, snapshot = key[0], self._cache[key]
                self.cache_hits += 1
                break
        executor.rewind(snapshot)
        since_checkpoint = 0
        for index in range(start, len(events)):
            try:
                executor.execute_one(events[index])
            except PropertyViolation as violation:
                self.events_executed += index + 1 - start
                return index, violation
            since_checkpoint += 1
            if (since_checkpoint >= self.checkpoint_every
                    and index + 1 < len(events)):
                since_checkpoint = 0
                if len(self._cache) >= self.cache_limit:
                    del self._cache[next(iter(self._cache))]
                self._cache[keys[index]] = executor.snapshot()
        self.events_executed += len(events) - start
        return len(events), None


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
    """The sound (and slow) prober: a fresh harness per probe.

    Ground truth by construction -- nothing carries over between probes.
    Used directly by :func:`minimize_trail_naive`, and as the fallback
    :class:`_HybridTest` switches to when the fast prober turns out to
    be polluted.
    """

    def __init__(self, spec, max_probes: Optional[int] = None):
        self.spec = spec
        self.max_probes = max_probes
        self.probes = 0
        self.events_executed = 0

    def run(self, events: List[Event]) -> Tuple[int, Optional[PropertyViolation]]:
        if self.max_probes is not None and self.probes >= self.max_probes:
            raise _BudgetExceeded()
        self.probes += 1
        executor = TrailExecutor(self.spec)
        result = executor.execute(events)
        self.events_executed += executor.events_executed
        return result


class _HybridTest:
    """ddmin's test function: fast prefix-cached probes, fresh-harness
    ground truth where it matters.

    The long-lived prober assumes checkpoint/restore is exact -- but the
    bug being minimized may corrupt restore *itself* (VeriFS's missing
    cache invalidation leaves dcache ghosts that survive every rollback),
    in which case pollution accumulates across probes and the prober
    raises spurious violations.  Two guards keep the result sound and
    recover minimization power:

    * every apparent success is confirmed on a fresh harness before
      ddmin may keep it (so the final answer is always genuine);
    * the first time the prober contradicts a fresh run -- a rejected
      confirmation, or a mismatched-signature violation where a fresh
      run stays clean -- the prober is declared polluted, the candidate
      at hand is judged fresh on the spot, and all remaining probes run
      fresh.

    :func:`minimize_trail` also calls :meth:`distrust` itself, when the
    live path runs clean but the full schedule reproduces: a bug only
    rollbacks can trigger is a bug in restore.

    Candidates must be valid schedules (no orphan RESTORE).
    """

    def __init__(self, spec, expected, prober: _Prober,
                 max_probes: Optional[int]):
        self.expected = expected
        self.prober = prober
        self.fresh = _FreshProber(spec)
        self.max_probes = max_probes
        #: probe count when the prober was given up (see :meth:`distrust`)
        self.polluted_at: Optional[int] = None
        #: a fresh run agreed with a prober mismatch once: stop paying
        #: for cross-checks of further mismatches
        self._mismatch_validated = False

    @property
    def probes(self) -> int:
        return self.prober.probes + self.fresh.probes

    @property
    def events_executed(self) -> int:
        return self.prober.events_executed + self.fresh.events_executed

    def _charge(self) -> None:
        if self.max_probes is not None and self.probes >= self.max_probes:
            raise _BudgetExceeded()

    def _accept(self, run_result, candidate: List[Event]) -> Optional[List[Event]]:
        index, violation = run_result
        report = getattr(violation, "report", None)
        if report is not None and signature(report) == self.expected:
            return candidate[:index + 1]
        return None

    def distrust(self) -> None:
        """Serve every further probe from a fresh harness."""
        if self.polluted_at is None:
            self.polluted_at = self.probes

    def _fresh(self, candidate: List[Event]) -> Optional[List[Event]]:
        self._charge()
        return self._accept(self.fresh.run(candidate), candidate)

    def __call__(self, candidate: List[Event]) -> Optional[List[Event]]:
        if self.polluted_at is not None:
            return self._fresh(candidate)
        self._charge()
        index, violation = self.prober.run(candidate)
        report = getattr(violation, "report", None)
        if report is None:
            # clean run: trust it.  Pollution adds spurious violations;
            # it cannot make two file systems agree where they would
            # genuinely diverge.
            return None
        if signature(report) == self.expected:
            confirmed = self._fresh(candidate[:index + 1])
            if confirmed is None:
                # the prober lied about where (or whether) the candidate
                # fails; the candidate itself still deserves a verdict
                self.distrust()
                return self._fresh(candidate)
            return confirmed
        # a violation that is not ours: legitimate (dropping operations
        # can surface a different manifestation) or pollution masking
        # the real reproducer.  Ask a fresh harness once.
        if not self._mismatch_validated:
            self._charge()
            fresh_result = self.fresh.run(candidate)
            if fresh_result[1] is None:
                self.distrust()
                return None
            self._mismatch_validated = True
            return self._accept(fresh_result, candidate)
        return None


def _finalize(trail: Trail, minimized: List[Event], probes: int,
              events_executed: int, expected, exhausted: bool,
              **served) -> MinimizeResult:
    """Re-run the minimized schedule on a *fresh* harness and package the
    result as a new trail (clean report, correct digest)."""
    executor = TrailExecutor(trail.spec)
    index, violation = executor.execute(minimized)
    report = getattr(violation, "report", None)
    if report is None or signature(report) != expected:
        raise RuntimeError(
            "minimized schedule failed to reproduce on a fresh harness; "
            "this is a determinism bug in the harness (run 'repro lint')")
    minimized = minimized[:index + 1]
    report.schedule = list(minimized)
    new_trail = Trail(
        spec=trail.spec,
        report=report,
        mode=trail.mode,
        seed=trail.seed,
        minimized_from=trail.operations,
        probes=probes,
    )
    result = MinimizeResult(
        trail=new_trail,
        probes=probes,
        events_executed=events_executed + executor.events_executed,
        original_operations=trail.operations,
        minimized_operations=new_trail.operations,
        original_events=trail.events,
        minimized_events=new_trail.events,
        exhausted=exhausted,
        **served,
    )
    new_trail.minimization = result.stats()
    return result


def minimize_trail(trail: Trail, max_probes: Optional[int] = 5000,
                   checkpoint_every: int = 64,
                   cache_limit: int = 48) -> MinimizeResult:
    """Shrink a trail to a 1-minimal reproducer.

    The schedule is a tree of checkpoint/restore episodes and is
    minimized as one: first its live path alone is probed (for every
    bug that does not depend on a rollback having happened, those few
    events *are* the reproducer and the full schedule is never run);
    what survives goes through ddmin over episode atoms, coarse to
    fine (:class:`_Reduction`), on a prefix-cached prober.
    """
    events = trace.normalize(list(trail.report.schedule or []))
    if not events:
        raise ValueError("trail carries no schedule to minimize")
    expected = trail.signature()
    prober = _Prober(trail.spec, checkpoint_every=checkpoint_every,
                     cache_limit=cache_limit)
    failing = _HybridTest(trail.spec, expected, prober, max_probes)

    path = trace.live_path(events)
    projectable = len(path) < len(events)
    current = failing(path) if projectable else None
    projected = current is not None
    if not projected:
        current = failing(events)
        if current is None:
            raise ValueError(
                "trail does not reproduce here; refusing to minimize a "
                "flaky counterexample (replay it first: 'repro replay')")
        if projectable:
            # only the rollbacks tell the two runs apart, so restore is
            # not exact here -- and a harness rewound between probes is
            # exactly what cannot be trusted then
            failing.distrust()
    reduction = _Reduction(current, failing)
    exhausted = False
    try:
        reduction.run()
    except _BudgetExceeded:
        exhausted = True
    return _finalize(trail, reduction.schedule(), failing.probes,
                     failing.events_executed, expected, exhausted,
                     projected=projected,
                     cached_probes=prober.probes,
                     fresh_probes=failing.fresh.probes,
                     cache_hits=prober.cache_hits,
                     polluted_at=failing.polluted_at)


def minimize_trail_naive(trail: Trail,
                         max_probes: Optional[int] = 5000) -> MinimizeResult:
    """The baseline minimizer: delete one event at a time, re-executing
    every candidate from scratch on a freshly built harness.

    Exists for the ``BENCH_trail`` comparison; it reaches the same
    1-minimal answer but pays full re-execution (and harness rebuild)
    per probe.
    """
    events = trace.normalize(list(trail.report.schedule or []))
    if not events:
        raise ValueError("trail carries no schedule to minimize")
    expected = trail.signature()
    fresh = _FreshProber(trail.spec, max_probes=max_probes)

    def failing(candidate: List[Event]) -> Optional[List[Event]]:
        candidate = trace.normalize(candidate)
        if not candidate:
            return None
        index, violation = fresh.run(candidate)
        report = getattr(violation, "report", None)
        if report is not None and signature(report) == expected:
            return candidate[:index + 1]
        return None

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
    return _finalize(trail, current, fresh.probes, fresh.events_executed,
                     expected, exhausted, fresh_probes=fresh.probes)
