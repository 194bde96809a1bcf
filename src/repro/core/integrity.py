"""Integrity checks: assert that all tested file systems agree.

After each operation, MCFS verifies that every file system under test
produced the same observable outcome (return value or errno) and is in
the same abstract state (file data and important metadata).  On any
mismatch it raises :class:`DiscrepancyError`, halting exploration with a
precise, replayable report.

Not every discrepancy is a bug (file systems have implementation-
specific behaviour); the abstraction options encode the sanctioned
differences.  Whatever still differs is surfaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.abstraction import AbstractionOptions, EntryRecord
from repro.errors import errno_name
from repro.mc.explorer import PropertyViolation


@dataclass(frozen=True)
class Outcome:
    """The observable result of one operation on one file system (an
    immutable value: ``ok(0)`` and each errno's failure are shared)."""

    ok: bool
    value: Optional[object] = None
    errno: Optional[int] = None

    @classmethod
    def success(cls, value: object = 0) -> "Outcome":
        if type(value) is int and value == 0:
            return OK
        return cls(ok=True, value=value)

    @classmethod
    def failure(cls, errno: int) -> "Outcome":
        outcome = _FAILURES.get(errno)
        if outcome is None:
            outcome = _FAILURES[errno] = cls(ok=False, errno=errno)
        return outcome

    def describe(self) -> str:
        if self.ok:
            return f"ok({self.value!r})"
        return f"error({errno_name(self.errno)})"

    def matches(self, other: "Outcome") -> bool:
        if self.ok != other.ok:
            return False
        if self.ok:
            return self.value == other.value
        return self.errno == other.errno


#: the shared ``ok(0)`` outcome
OK = Outcome(ok=True, value=0)
#: errno -> its shared failure outcome, filled on first use
_FAILURES: Dict[int, Outcome] = {}


@dataclass
class StateDiff:
    """A readable diff between two file systems' entry lists."""

    only_in_first: List[str] = field(default_factory=list)
    only_in_second: List[str] = field(default_factory=list)
    attribute_mismatches: List[str] = field(default_factory=list)
    content_mismatches: List[str] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (
            self.only_in_first
            or self.only_in_second
            or self.attribute_mismatches
            or self.content_mismatches
        )

    def describe(self) -> str:
        lines: List[str] = []
        for path in self.only_in_first:
            lines.append(f"  only in first:  {path}")
        for path in self.only_in_second:
            lines.append(f"  only in second: {path}")
        lines.extend(f"  attrs differ:   {entry}" for entry in self.attribute_mismatches)
        lines.extend(f"  content differs:{entry}" for entry in self.content_mismatches)
        return "\n".join(lines) if lines else "  (states identical)"

    # ------------------------------------------------------- serialisation --
    def to_dict(self) -> Dict[str, List[str]]:
        return {
            "only_in_first": list(self.only_in_first),
            "only_in_second": list(self.only_in_second),
            "attribute_mismatches": list(self.attribute_mismatches),
            "content_mismatches": list(self.content_mismatches),
        }

    @classmethod
    def from_dict(cls, document: Dict[str, List[str]]) -> "StateDiff":
        return cls(
            only_in_first=list(document.get("only_in_first", [])),
            only_in_second=list(document.get("only_in_second", [])),
            attribute_mismatches=list(document.get("attribute_mismatches", [])),
            content_mismatches=list(document.get("content_mismatches", [])),
        )


def diff_entries(
    first: Sequence[EntryRecord],
    second: Sequence[EntryRecord],
    options: AbstractionOptions,
) -> StateDiff:
    """Compare two walked entry lists the way the abstraction hash would."""
    diff = StateDiff()
    first_map = {record.path: record for record in first}
    second_map = {record.path: record for record in second}
    for path in sorted(set(first_map) - set(second_map)):
        diff.only_in_first.append(path)
    for path in sorted(set(second_map) - set(first_map)):
        diff.only_in_second.append(path)
    for path in sorted(set(first_map) & set(second_map)):
        a, b = first_map[path], second_map[path]
        if a.important_attributes(options) != b.important_attributes(options):
            diff.attribute_mismatches.append(
                f"{path}: {a.important_attributes(options)} vs "
                f"{b.important_attributes(options)}"
            )
        if a.content_md5 != b.content_md5:
            diff.content_mismatches.append(
                f"{path}: md5 {a.content_md5[:8]}... vs {b.content_md5[:8]}..."
            )
        if options.include_xattrs and a.xattr_md5 != b.xattr_md5:
            diff.content_mismatches.append(
                f"{path}: xattrs differ ({a.xattr_md5[:8] or '-'} vs "
                f"{b.xattr_md5[:8] or '-'})"
            )
    return diff


class DiscrepancyError(PropertyViolation):
    """Raised when tested file systems disagree; halts the exploration."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class IntegrityChecker:
    """Performs the per-operation cross-file-system assertions."""

    def __init__(self, options: AbstractionOptions = AbstractionOptions()):
        self.options = options
        self.outcome_checks = 0
        self.state_checks = 0

    def compare_outcomes(
        self, labels: Sequence[str], outcomes: Sequence[Outcome]
    ) -> Optional[str]:
        """Return a description of any outcome mismatch, else None."""
        self.outcome_checks += 1
        reference = outcomes[0]
        for label, outcome in zip(labels[1:], outcomes[1:]):
            # shared outcomes (ok(0), one per errno) match by identity
            if outcome is not reference and not reference.matches(outcome):
                return (
                    f"{labels[0]} -> {reference.describe()} but "
                    f"{label} -> {outcome.describe()}"
                )
        return None

    def compare_states(self, futs) -> Tuple[Optional[str], Optional[StateDiff]]:
        """Compare abstract states of all FUTs; diff the first mismatch."""
        self.state_checks += 1
        reference_fut = futs[0]
        reference_hash = reference_fut.abstract_state(self.options)
        for fut in futs[1:]:
            if fut.abstract_state(self.options) != reference_hash:
                diff = diff_entries(
                    reference_fut.collect_entries(self.options),
                    fut.collect_entries(self.options),
                    self.options,
                )
                return (
                    f"abstract states differ: {reference_fut.label} vs {fut.label}",
                    diff,
                )
        return None, None
