"""Trail files: self-contained, shippable counterexamples.

A trail is everything a fresh process needs to re-witness a discrepancy:
the :class:`~repro.dist.spec.CheckSpec` of the run that found it (which
rebuilds identical file systems, strategies, and workload pools
anywhere, and names the search), the seed of the walk that found it,
the explorer's full event schedule (inside
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
    """One line on what a minimization's probes started from."""
    return ("live path reproduced" if stats["projected"]
            else "full schedule (live path alone does not reproduce)")


@dataclass
class Trail:
    """One counterexample: a spec to rebuild the world, a schedule to
    re-run in it, and the outcome the re-run must reproduce."""

    spec: CheckSpec
    report: DiscrepancyReport
    seed: int = 0
    #: operation count of the originating trail (set on minimized trails)
    minimized_from: Optional[int] = None
    #: delta-debugging probes spent producing this trail (minimized only)
    probes: Optional[int] = None
    #: how those probes ran (``MinimizeResult.stats()``): whether the
    #: live path alone reproduced
    minimization: Optional[Dict[str, Any]] = None

    @property
    def mode(self) -> str:
        """The search that found it (``random`` or ``dfs``)."""
        return self.spec.mode

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
        """Rebuild a trail; a document of any wrong shape raises
        :class:`TrailFormatError`."""
        if not isinstance(document, dict):
            raise TrailFormatError(
                f"not an mcfs trail (a JSON {type(document).__name__})")
        if document.get("format") != TRAIL_FORMAT:
            raise TrailFormatError(
                f"not an mcfs trail (format={document.get('format')!r})")
        if document.get("version", 0) > TRAIL_VERSION:
            raise TrailFormatError(
                f"trail version {document['version']} is newer than this "
                f"reader (supports <= {TRAIL_VERSION})")
        try:
            # trails written before the spec named its search carry the
            # mode beside it
            spec = {"mode": document.get("mode", "random"),
                    **document["spec"]}
            trail = cls(
                spec=CheckSpec.from_dict(spec),
                report=DiscrepancyReport.from_dict(document["report"]),
                seed=document.get("seed", 0),
                minimized_from=document.get("minimized_from"),
                probes=document.get("probes"),
                minimization=document.get("minimization"),
            )
            orphans = trace.orphan_restores(trail.report.schedule or [])
        except (KeyError, TypeError, AttributeError, ValueError) as error:
            raise TrailFormatError(
                f"malformed trail ({type(error).__name__}: {error})") from None
        if not trail.report.schedule:
            raise TrailFormatError("trail carries no schedule to replay")
        if orphans:
            position = orphans[0]
            raise TrailFormatError(
                f"malformed schedule: event {position + 1} restores "
                f"checkpoint {trail.report.schedule[position][1]!r}, which "
                f"no earlier event took or an earlier restore spent")
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
                  trail_dir: str, seed: int = 0) -> str:
    """Write ``report`` (which must carry a schedule) as a trail file.

    Returns the path written, once the file is on disk.  The name is the
    run's: its spec (a short digest of it) and seed, so a run captured
    again -- a campaign unit re-run after its lease expired -- replaces
    its own earlier file, and the directory holds one trail per run.
    """
    if not report.schedule:
        raise ValueError("report has no schedule; nothing to capture")
    os.makedirs(trail_dir, exist_ok=True)
    digest = hashlib.md5(json.dumps(spec.to_dict(), sort_keys=True)
                         .encode("utf-8")).hexdigest()[:8]
    stem = f"{'-'.join(spec.filesystems)}-{spec.mode}-seed{seed}-{digest}"
    path = os.path.join(trail_dir, f"{stem}.trail.json")
    return Trail(spec=spec, report=report, seed=seed).save(path)
