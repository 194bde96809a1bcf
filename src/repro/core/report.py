"""Discrepancy reports: precise, replayable bug evidence.

When the integrity checker trips, Spin "logs the precise sequence of
operations, parameters, and starting and ending states that led to a
problem, simplifying reproducibility" (section 2).  The report captures
all of that, renders it for humans, hands back the logged operation
sequence (:meth:`DiscrepancyReport.operations`), and serialises to JSON
so a trace can be attached to a bug report and replayed elsewhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.findings import Finding, finding_from_dict
from repro.core.integrity import Outcome, StateDiff
from repro.core.ops import Operation
from repro.mc import trace
from repro.util.fieldcodec import FieldCodec


def _encode_arg(value: Any) -> Any:
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    return value


def _decode_arg(value: Any) -> Any:
    if isinstance(value, dict) and "__bytes__" in value:
        return bytes.fromhex(value["__bytes__"])
    return value


def operation_to_dict(operation: Operation) -> Dict[str, Any]:
    return {
        "name": operation.name,
        "args": [_encode_arg(arg) for arg in operation.args],
    }


def operation_from_dict(document: Dict[str, Any]) -> Operation:
    return Operation(
        name=document["name"],
        args=tuple(_decode_arg(arg) for arg in document["args"]),
    )


def _outcome_to_dict(outcome: Outcome) -> Dict[str, Any]:
    return {"ok": outcome.ok,
            "value": _encode_arg(outcome.value),
            "errno": outcome.errno}


def _outcome_from_dict(document: Dict[str, Any]) -> Outcome:
    return Outcome(ok=document["ok"],
                   value=_decode_arg(document.get("value")),
                   errno=document.get("errno"))


def schedule_event_to_dict(event: Tuple) -> Dict[str, Any]:
    """Serialise one explorer schedule event (see :mod:`repro.mc.trace`)."""
    tag = event[0]
    if tag == trace.OP:
        return {"event": tag, "operation": operation_to_dict(event[1])}
    if tag in (trace.CHECKPOINT, trace.RESTORE):
        return {"event": tag, "id": event[1]}
    return {"event": tag}


def schedule_event_from_dict(document: Dict[str, Any]) -> Tuple:
    """Decode one schedule event; an unknown kind raises ``ValueError``."""
    tag = document["event"]
    if tag == trace.OP:
        return (tag, operation_from_dict(document["operation"]))
    if tag in (trace.CHECKPOINT, trace.RESTORE):
        return (tag, document["id"])
    if tag in (trace.CHECK, trace.FSCK):
        return (tag,)
    raise ValueError(f"unknown schedule event {tag!r}")


@dataclass
class LoggedOperation:
    """One executed operation with its per-file-system outcomes."""

    operation: Operation
    outcomes: Dict[str, Outcome] = field(default_factory=dict)

    def describe(self) -> str:
        results = ", ".join(
            f"{label}={outcome.describe()}" for label, outcome in self.outcomes.items()
        )
        return f"{self.operation.describe():40s} {results}"


@dataclass
class DiscrepancyReport:
    """Everything needed to understand and reproduce one discrepancy."""

    kind: str  # "outcome" | "state" | "corruption"
    summary: str
    operation_log: List[LoggedOperation] = field(default_factory=list)
    state_diff: Optional[StateDiff] = None
    starting_state: str = ""
    ending_states: Dict[str, str] = field(default_factory=dict)
    operations_executed: int = 0
    sim_time: float = 0.0
    #: labels outvoted by the majority (set when majority voting is on
    #: and a strict majority existed) -- the suspected culprits
    suspects: List[str] = field(default_factory=list)
    #: structured fsck findings (set for ``kind="corruption"`` reports
    #: raised by the :mod:`repro.analysis` oracle)
    findings: List[Finding] = field(default_factory=list)
    #: the explorer's full event schedule (operations, checkpoints,
    #: restores, checks) from run start to detection -- what
    #: :mod:`repro.trail` replays; None when the run recorded none
    #: (e.g. a violation raised outside an explorer)
    schedule: Optional[List[Tuple]] = None

    @property
    def failing_operation(self) -> Optional[LoggedOperation]:
        return self.operation_log[-1] if self.operation_log else None

    def operations(self) -> List[Operation]:
        """The replayable operation sequence."""
        return [logged.operation for logged in self.operation_log]

    # ------------------------------------------------------- serialisation --
    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "summary": self.summary,
            "starting_state": self.starting_state,
            "ending_states": dict(self.ending_states),
            "operations_executed": self.operations_executed,
            "sim_time": self.sim_time,
            "suspects": list(self.suspects),
            "findings": [finding.to_dict() for finding in self.findings],
            "state_diff": (self.state_diff.to_dict()
                           if self.state_diff is not None else None),
            "schedule": ([schedule_event_to_dict(event)
                          for event in self.schedule]
                         if self.schedule is not None else None),
            "operation_log": [
                {
                    "operation": operation_to_dict(logged.operation),
                    "outcomes": {
                        label: _outcome_to_dict(outcome)
                        for label, outcome in logged.outcomes.items()
                    },
                }
                for logged in self.operation_log
            ],
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "DiscrepancyReport":
        state_diff = document.get("state_diff")
        schedule = document.get("schedule")
        return cls(
            kind=document["kind"],
            summary=document["summary"],
            starting_state=document.get("starting_state", ""),
            ending_states=dict(document.get("ending_states", {})),
            operations_executed=document.get("operations_executed", 0),
            sim_time=document.get("sim_time", 0.0),
            suspects=list(document.get("suspects", [])),
            findings=[finding_from_dict(entry)
                      for entry in document.get("findings", [])],
            state_diff=(StateDiff.from_dict(state_diff)
                        if state_diff is not None else None),
            schedule=([schedule_event_from_dict(entry) for entry in schedule]
                      if schedule is not None else None),
            operation_log=[
                LoggedOperation(
                    operation=operation_from_dict(entry["operation"]),
                    outcomes={
                        label: _outcome_from_dict(outcome)
                        for label, outcome in entry["outcomes"].items()
                    },
                )
                for entry in document.get("operation_log", [])
            ],
        )

    def save(self, path: str) -> None:
        """Write the report as a JSON trace file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    @classmethod
    def load(cls, path: str) -> "DiscrepancyReport":
        """Load a JSON trace file saved by :meth:`save`."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def __str__(self) -> str:
        lines = [
            f"=== MCFS discrepancy ({self.kind}) ===",
            self.summary,
            f"detected after {self.operations_executed} operations "
            f"({self.sim_time:.3f}s simulated)",
            f"starting abstract state: {self.starting_state or '(unrecorded)'}",
        ]
        if self.suspects:
            lines.append(f"suspected culprit(s) by majority vote: "
                         f"{', '.join(self.suspects)}")
        if self.findings:
            lines.append(f"fsck findings ({len(self.findings)}):")
            for finding in self.findings:
                lines.append(f"  {finding.describe()}")
        if self.ending_states:
            lines.append("ending abstract states:")
            for label, state in self.ending_states.items():
                lines.append(f"  {label}: {state}")
        if self.operation_log:
            lines.append(f"operation sequence ({len(self.operation_log)} steps):")
            for index, logged in enumerate(self.operation_log):
                lines.append(f"  {index + 1:3d}. {logged.describe()}")
        if self.state_diff is not None:
            lines.append("state diff:")
            lines.append(self.state_diff.describe())
        return "\n".join(lines)


@dataclass
class RunSummary(FieldCodec):
    """The per-run scoreboard ``repro check`` prints.

    Includes the duplicate-hit ratio so the visited table's
    effectiveness (how much re-exploration it saved) is visible for
    every run, not just in ad-hoc benchmarks.
    """

    operations: int
    unique_states: int
    sim_time: float
    ops_per_second: float
    stopped_reason: str
    revisited_states: int = 0
    duplicate_hits: int = 0
    duplicate_hit_ratio: float = 0.0
    fsck_checks: int = 0
    show_fsck: bool = False
    #: DFS work the run did not have to do: transitions slept by POR,
    #: transitions answered by the successor memo, and self-loop
    #: children left in place instead of restored
    por_pruned: int = 0
    memo_hits: int = 0
    restores_elided: int = 0
    #: snapshot traffic: bytes the checkpoint path actually copied vs.
    #: rewrote on restore, and the logical-to-physical dedup ratio the
    #: copy-on-write chunk tables achieved (0.0 = no snapshot traffic)
    bytes_snapshotted: int = 0
    bytes_restored: int = 0
    snapshot_dedup_ratio: float = 0.0
    #: lossy visited-state stores (bitstate / hash compaction)
    #: may silently omit states; coverage loss is surfaced, never hidden
    omission_possible: bool = False
    omission_probability: float = 0.0
    store_bits_per_state: float = 0.0
    #: where the run's counterexample trail was written (``--trail-dir``);
    #: None when no discrepancy was found or capture was off
    trail_path: Optional[str] = None
    #: operation count of the minimized reproducer (``repro minimize`` /
    #: ``--minimize``); None when no minimization ran
    minimized_operations: Optional[int] = None
    #: per-state cost breakdown (``--profile``;
    #: :meth:`repro.mc.perf.CostProfile.to_dict` form); None when the
    #: run did not profile
    cost_profile: Optional[Dict[str, Any]] = None

    @classmethod
    def from_campaign(cls, dist, show_fsck: bool = False) -> "RunSummary":
        """The one scoreboard ``repro check`` prints, from a
        :class:`~repro.dist.DistResult` (duck-typed).  Work is what the
        units this run executed did; new states are those it added to
        the table it resumed, every other visit a duplicate hit.  Any
        violation stops a campaign; one unit stops where its unit did."""
        ran = dist.ran_results

        def count(name: str) -> int:
            return sum(getattr(unit.stats, name) for unit in ran)

        operations = count("operations")
        parallel, physical = dist.modeled_parallel_time, dist.bytes_snapshotted
        new_states = dist.visited_states - dist.resumed_states
        visits = count("unique_states") + count("revisited_states")
        logical = sum(unit.logical_snapshot_bytes for unit in ran)
        stopped = ("property violation" if dist.found_discrepancy
                   else dist.unit_results[0].stopped_reason
                   if len(dist.unit_results) == 1
                   else "distributed campaign complete")
        return cls(
            operations=operations,
            unique_states=new_states,
            sim_time=parallel,
            ops_per_second=operations / parallel if parallel else 0.0,
            stopped_reason=stopped,
            duplicate_hits=visits - new_states,
            duplicate_hit_ratio=(visits - new_states) / visits if visits
            else 0.0,
            show_fsck=show_fsck,
            bytes_snapshotted=physical,
            bytes_restored=dist.bytes_restored,
            snapshot_dedup_ratio=logical / physical if physical > 0 else 0.0,
            # a unit's private store may have omitted what the union did not
            omission_possible=dist.omission_possible,
            omission_probability=dist.omission_probability,
            store_bits_per_state=dist.table.stats.bits_per_state,
            trail_path=dist.trail_paths[0] if dist.trail_paths else None,
            cost_profile=dist.cost_profile,
            **{name: count(name) for name in (
                "revisited_states", "fsck_checks", "por_pruned",
                "memo_hits", "restores_elided")},
        )

    def render(self) -> str:
        lines = [
            f"operations : {self.operations}",
            f"new states : {self.unique_states}",
            f"dup hits   : {self.duplicate_hits} "
            f"({self.duplicate_hit_ratio:.1%} of visits)",
            f"sim time   : {self.sim_time:.3f}s "
            f"({self.ops_per_second:.1f} ops/s)",
            f"stopped    : {self.stopped_reason}",
        ]
        if self.por_pruned or self.memo_hits or self.restores_elided:
            lines.append(
                f"reductions : {self.por_pruned} slept (POR), "
                f"{self.memo_hits} memo hits, "
                f"{self.restores_elided} restores elided"
            )
        if self.omission_possible:
            lines.append(
                f"store      : LOSSY ({self.store_bits_per_state:.1f} "
                f"bits/state, omission p <= "
                f"{self.omission_probability:.2e})"
            )
        if self.bytes_snapshotted or self.bytes_restored:
            lines.append(
                f"snapshots  : {self.bytes_snapshotted} B copied / "
                f"{self.bytes_restored} B restored "
                f"(dedup {self.snapshot_dedup_ratio:.1f}x)"
            )
        if self.cost_profile:
            from repro.mc.perf import CostProfile

            lines.append("cost/state : "
                         + CostProfile.from_dict(self.cost_profile).describe())
        if self.show_fsck:
            lines.append(f"fsck sweeps: {self.fsck_checks}")
        if self.trail_path:
            lines.append(f"trail      : {self.trail_path}")
        if self.minimized_operations is not None:
            lines.append(f"minimized  : {self.minimized_operations} operation(s)")
        return "\n".join(lines)
