"""Deterministic trail replay: the ``spin -t`` of this reproduction.

Replay rebuilds the trail's harness from its embedded
:class:`~repro.dist.spec.CheckSpec` (fresh file systems, same strategies,
same workload pool, same equalization) and re-executes the recorded
schedule *event for event*: every operation, every state comparison,
every fsck sweep, every checkpoint and rollback.  Executing the
rollbacks is the point -- restore-dependent bugs (a missing FUSE cache
invalidation only ghosts after an ioctl restore) cannot be reproduced by
a linear re-run of the operation log, but a schedule replay performs the
same rollback and hits the same ghost.

The verdicts:

* ``CONFIRMED`` -- the same discrepancy (matching signature) was raised
  at the final schedule event, exactly where the original run raised it;
* ``NOT-REPRODUCED`` -- the schedule ran to completion cleanly;
* ``DIVERGED`` -- a violation fired early, or a different discrepancy
  fired.

Everything in the simulation is deterministic by construction (the lint
in :mod:`repro.analysis.lint` exists to keep it that way), so any
verdict except CONFIRMED on a freshly captured trail is evidence of a
determinism bug in the harness itself -- which is why the CI replay
smoke job treats it as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.report import DiscrepancyReport
from repro.mc import trace
from repro.mc.explorer import PropertyViolation
from repro.trail.capture import Trail, report_digest, signature

CONFIRMED = "CONFIRMED"
NOT_REPRODUCED = "NOT-REPRODUCED"
DIVERGED = "DIVERGED"


@dataclass
class ReplayResult:
    """What happened when a trail's schedule was re-executed."""

    status: str  # CONFIRMED | NOT-REPRODUCED | DIVERGED
    detail: str
    operations: int
    events: int
    report: Optional[DiscrepancyReport] = None
    #: strict byte-level match: the replayed report's digest equals the
    #: trail's recorded digest (CONFIRMED only requires the signature)
    exact: bool = False

    @property
    def confirmed(self) -> bool:
        return self.status == CONFIRMED

    def describe(self) -> str:
        line = (f"{self.status}: {self.detail} "
                f"({self.operations} operation(s), {self.events} event(s))")
        if self.confirmed:
            line += " [exact]" if self.exact else " [signature]"
        return line


class TrailExecutor:
    """Drives a spec-built target through schedule events.

    Shared by replay (one pass over the schedule) and the minimizer
    (many passes over candidate subsets).  All rollbacks go through
    ``restore_reusable`` so checkpoint tokens survive arbitrarily many
    restores -- the single-use ioctl snapshot keys are re-armed in
    place.
    """

    def __init__(self, spec):
        self.mcfs = spec.build_mcfs()
        self.target = self.mcfs._prepare()
        self.engine = self.mcfs.engine()
        #: trail checkpoint id -> concrete target token
        self.tokens: Dict[int, Any] = {}
        self._oracle = None
        self.operations_executed = 0
        self.events_executed = 0

    def _fsck(self) -> None:
        if self._oracle is None:
            from repro.analysis.oracle import FsckOracle

            self._oracle = FsckOracle(self.engine, max_workers=1)
        self._oracle()

    def snapshot(self) -> Tuple[Any, list, Dict[int, Any]]:
        """Everything :meth:`rewind` must re-establish: a target token,
        the operation log (the token only knows its length), and the
        checkpoint-id bindings valid *here* -- a later ``RESTORE id``
        must find the token this run took, not one a different run
        left under the same id."""
        return (self.target.checkpoint(), list(self.engine.operation_log),
                dict(self.tokens))

    def rewind(self, snapshot: Tuple[Any, list, Dict[int, Any]]) -> None:
        """Put the harness back where :meth:`snapshot` was taken."""
        token, log, bindings = snapshot
        self.target.restore_reusable(token)
        self.engine.operation_log[:] = log
        self.tokens = dict(bindings)

    def execute_one(self, event: Tuple) -> None:
        """Execute one schedule event; violations propagate."""
        tag = event[0]
        self.events_executed += 1
        if tag == trace.OP:
            self.operations_executed += 1
            self.target.apply(event[1])
        elif tag == trace.CHECK:
            self.target.abstract_state()
        elif tag == trace.FSCK:
            self._fsck()
        elif tag == trace.CHECKPOINT:
            self.tokens[event[1]] = self.target.checkpoint()
        elif tag == trace.RESTORE:
            self.target.restore_reusable(self.tokens[event[1]])
        else:
            raise ValueError(f"unknown trail event {tag!r}")

    def execute(self, events: List[Tuple]) -> Tuple[int, Optional[PropertyViolation]]:
        """Execute events in order until one raises.

        Returns ``(index, violation)`` of the first violating event, or
        ``(len(events), None)`` when the whole schedule ran clean.
        """
        for index, event in enumerate(events):
            try:
                self.execute_one(event)
            except PropertyViolation as violation:
                return index, violation
        return len(events), None


def replay_trail(trail: Trail) -> ReplayResult:
    """Re-execute a trail's schedule against a freshly built harness."""
    events = trail.report.schedule or []
    if not events:
        raise ValueError("trail carries no schedule to replay")
    executor = TrailExecutor(trail.spec)
    index, violation = executor.execute(events)

    if violation is None:
        return ReplayResult(
            status=NOT_REPRODUCED,
            detail="schedule ran to completion without a discrepancy",
            operations=executor.operations_executed,
            events=executor.events_executed,
        )

    report = getattr(violation, "report", None)
    if report is None:
        return ReplayResult(
            status=DIVERGED,
            detail=f"event {index + 1}/{len(events)} raised a violation "
                   f"without a report: {violation}",
            operations=executor.operations_executed,
            events=executor.events_executed,
        )
    if index != len(events) - 1:
        return ReplayResult(
            status=DIVERGED,
            detail=f"discrepancy fired early, at event {index + 1} of "
                   f"{len(events)}: {report.summary}",
            operations=executor.operations_executed,
            events=executor.events_executed,
            report=report,
        )
    expected = trail.signature()
    got = signature(report)
    if got != expected:
        return ReplayResult(
            status=DIVERGED,
            detail=f"a different discrepancy fired at the final event: "
                   f"expected {expected}, got {got}",
            operations=executor.operations_executed,
            events=executor.events_executed,
            report=report,
        )
    return ReplayResult(
        status=CONFIRMED,
        detail=report.summary,
        operations=executor.operations_executed,
        events=executor.events_executed,
        report=report,
        exact=report_digest(report) == trail.digest(),
    )
