"""Trail files: self-contained, shippable counterexamples.

A trail is everything a fresh process needs to re-witness a discrepancy:
the campaign :class:`~repro.dist.spec.CheckSpec` (which rebuilds
identical file systems, strategies, and workload pools anywhere), the
seed and mode that found it, the explorer's full event schedule (inside
the serialised report), and the expected outcome -- both a relaxed
structured *signature* and a strict byte-level *digest* of the report.

The signature is stable under minimisation (it names the discrepancy,
not the specific values along the way); the digest is the exact-match
fingerprint a deterministic replay should reproduce bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.report import DiscrepancyReport
from repro.dist.spec import CheckSpec
from repro.mc import trace

TRAIL_FORMAT = "mcfs-trail"
TRAIL_VERSION = 1


class TrailFormatError(ValueError):
    """The file is not a loadable mcfs trail."""


def signature(report: DiscrepancyReport) -> Dict[str, Any]:
    """The discrepancy's structured identity, stable under minimisation.

    Keyed by what *bug* fired, not by the incidental values of the run:
    delta debugging drops operations, which can change the bytes a stale
    read returns, but not the kind of disagreement or the invariant that
    broke.
    """
    sig: Dict[str, Any] = {"kind": report.kind}
    if report.kind == "outcome":
        failing = report.failing_operation
        sig["operation"] = (failing.operation.name
                            if failing is not None else None)
    elif report.kind == "state":
        # "abstract states differ: A vs B" (a voting verdict may follow
        # after " | "; it names the same mismatch, so it is not identity)
        sig["summary"] = report.summary.split(" | ")[0]
    elif report.kind == "corruption":
        sig["invariants"] = sorted(
            {f"{finding.checker}:{finding.invariant}"
             for finding in report.findings}
        )
    return sig


def report_digest(report: DiscrepancyReport) -> str:
    """Strict fingerprint of a report: md5 over its canonical JSON.

    The schedule is excluded -- a replayed run produces the same report
    *content* but records no schedule of its own (and a minimized trail
    carries a different schedule for the same discrepancy).
    """
    document = report.to_dict()
    document.pop("schedule", None)
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.md5(canonical.encode("utf-8")).hexdigest()


def describe_minimization(stats: Dict[str, Any]) -> str:
    """One line on how a minimization's probes were served."""
    line = ("live path reproduced" if stats["projected"]
            else "full schedule (live path alone does not reproduce)")
    line += (f"; {stats['cached_probes']} cached "
             f"({stats['cache_hits']} from a cached prefix), "
             f"{stats['fresh_probes']} fresh")
    if stats["polluted_at"] is None:
        return line + "; prober never contradicted a fresh harness"
    return line + (f"; POLLUTED at probe {stats['polluted_at']}: "
                   "every later probe ran fresh")


@dataclass
class Trail:
    """One counterexample: a spec to rebuild the world, a schedule to
    re-run in it, and the outcome the re-run must reproduce."""

    spec: CheckSpec
    report: DiscrepancyReport
    mode: str = "random"
    seed: int = 0
    #: operation count of the originating trail (set on minimized trails)
    minimized_from: Optional[int] = None
    #: delta-debugging probes spent producing this trail (minimized only)
    probes: Optional[int] = None
    #: how those probes were served (``MinimizeResult.stats()``): live
    #: path projected or not, cached/fresh split, cache hits, pollution
    minimization: Optional[Dict[str, Any]] = None

    @property
    def operations(self) -> int:
        """Operation count of the schedule (the trail's length)."""
        return trace.count_operations(self.report.schedule or [])

    @property
    def events(self) -> int:
        return len(self.report.schedule or [])

    def signature(self) -> Dict[str, Any]:
        return signature(self.report)

    def digest(self) -> str:
        return report_digest(self.report)

    # ------------------------------------------------------- serialisation --
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": TRAIL_FORMAT,
            "version": TRAIL_VERSION,
            "mode": self.mode,
            "seed": self.seed,
            "operations": self.operations,
            "events": self.events,
            "minimized_from": self.minimized_from,
            "probes": self.probes,
            "minimization": self.minimization,
            "signature": self.signature(),
            "digest": self.digest(),
            "spec": self.spec.to_dict(),
            "report": self.report.to_dict(),
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "Trail":
        if document.get("format") != TRAIL_FORMAT:
            raise TrailFormatError(
                f"not an mcfs trail (format={document.get('format')!r})")
        if document.get("version", 0) > TRAIL_VERSION:
            raise TrailFormatError(
                f"trail version {document['version']} is newer than this "
                f"reader (supports <= {TRAIL_VERSION})")
        trail = cls(
            spec=CheckSpec.from_dict(document["spec"]),
            report=DiscrepancyReport.from_dict(document["report"]),
            mode=document.get("mode", "random"),
            seed=document.get("seed", 0),
            minimized_from=document.get("minimized_from"),
            probes=document.get("probes"),
            minimization=document.get("minimization"),
        )
        if not trail.report.schedule:
            raise TrailFormatError("trail carries no schedule to replay")
        return trail

    def save(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
        return path

    @classmethod
    def load(cls, path: str) -> "Trail":
        with open(path, encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as error:
                raise TrailFormatError(f"{path}: not JSON ({error})")
        return cls.from_dict(document)

    def describe(self) -> str:
        lines = [
            f"trail: {self.mode} run, seed {self.seed}, "
            f"{self.operations} operation(s) in {self.events} event(s)",
            f"spec : {' vs '.join(self.spec.filesystems)}"
            + (f" (bugs: {', '.join(self.spec.verifs_bugs)})"
               if self.spec.verifs_bugs else ""),
            f"finds: [{self.report.kind}] {self.report.summary}",
        ]
        if self.minimized_from is not None:
            lines.append(f"minimized from {self.minimized_from} operation(s)"
                         + (f" in {self.probes} probe(s)"
                            if self.probes is not None else ""))
        if self.minimization is not None:
            lines.append("probes: "
                         + describe_minimization(self.minimization))
        return "\n".join(lines)


def capture_trail(report: DiscrepancyReport, spec: CheckSpec,
                  trail_dir: str, mode: str = "random", seed: int = 0,
                  name: Optional[str] = None, notify=None) -> str:
    """Write ``report`` (which must carry a schedule) as a trail file.

    Returns the path written.  Filenames never clash: an existing name
    gets a numeric suffix, so a campaign directory accumulates every
    find.

    ``notify`` is the streaming hook: a callable invoked with the
    written path *after* the file is durably on disk, so a subscriber
    told about a trail can immediately open it.  The campaign server
    uses this to push trail notifications to watching clients the
    moment a unit's violation is captured.
    """
    if not report.schedule:
        raise ValueError("report has no schedule; nothing to capture")
    os.makedirs(trail_dir, exist_ok=True)
    stem = name or f"{'-'.join(spec.filesystems)}-{mode}-seed{seed}"
    path = os.path.join(trail_dir, f"{stem}.trail.json")
    suffix = 2
    while os.path.exists(path):
        path = os.path.join(trail_dir, f"{stem}-{suffix}.trail.json")
        suffix += 1
    written = Trail(spec=spec, report=report, mode=mode, seed=seed).save(path)
    if notify is not None:
        notify(written)
    return written
