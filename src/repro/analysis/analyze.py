"""The ``repro analyze`` pipeline: every rule in one pass per file.

1. expand paths to ``.py`` files and read each once (a file that cannot
   be read is an ``unreadable-file`` finding);
2. parse each source once into the :class:`ProjectModel`
   (a file that does not parse is a ``syntax-error`` finding);
3. run the determinism visitor (:mod:`repro.analysis.lint`) on each
   parsed tree and the whole-program ``restore-blind`` pass
   (:mod:`repro.analysis.static`) on the model;
4. apply each file's pragmas (:mod:`repro.analysis.pragmas`) once, over
   all of that file's findings.

Everything is sorted ``(path, line, rule, message)`` so output is
byte-stable run to run -- the analyzer holds itself to the determinism
bar it enforces.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional

import repro
from repro.analysis.findings import Finding
from repro.analysis.lint import CHECKER, determinism_findings
from repro.analysis.pragmas import apply_pragmas
from repro.analysis.static import ProjectModel, run_snapshot_pass


def default_paths() -> List[str]:
    """The package's own source tree -- what ``repro analyze`` checks
    by default."""
    return [os.path.dirname(os.path.abspath(repro.__file__))]


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d != "__pycache__")
                files.extend(os.path.join(dirpath, name)
                             for name in filenames if name.endswith(".py"))
        elif path.endswith(".py"):
            files.append(path)
    return sorted(set(files))


def _finding_path(finding: Finding) -> str:
    return finding.location.rpartition(":")[0] or finding.location


def _finding_line(finding: Finding) -> int:
    line = finding.detail.get("line")
    if isinstance(line, int):
        return line
    _, _, tail = finding.location.rpartition(":")
    return int(tail) if tail.isdigit() else 0


def _sort_key(finding: Finding):
    return (_finding_path(finding), _finding_line(finding),
            finding.invariant, finding.message)


def analyze_sources(sources: Dict[str, str]) -> List[Finding]:
    """Every rule over the modules ``{path: source}``, sorted."""
    model = ProjectModel()
    modules = [model.add_file(path, sources[path]) for path in sorted(sources)]
    by_path: Dict[str, List[Finding]] = {path: [] for path in sources}
    for finding in run_snapshot_pass(model):
        by_path[_finding_path(finding)].append(finding)
    findings: List[Finding] = []
    for module in modules:
        file_findings = by_path[module.path]
        if module.tree is not None:
            file_findings += determinism_findings(module.tree, module.path)
        else:
            error = module.syntax_error
            file_findings.append(Finding(
                checker=CHECKER, invariant="syntax-error",
                message=f"cannot parse: {error}",
                location=f"{module.path}:{error.lineno or 0}",
            ))
        findings += apply_pragmas(file_findings, module.source, module.path)
    findings.sort(key=_sort_key)
    return findings


def run_analysis(paths: Optional[Iterable[str]] = None) -> List[Finding]:
    """Analyze ``paths`` (files or directories; default: the package)."""
    sources: Dict[str, str] = {}
    findings: List[Finding] = []
    for path in iter_python_files(paths or default_paths()):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                sources[path] = handle.read()
        except (OSError, UnicodeDecodeError) as error:
            findings.append(Finding(
                checker=CHECKER, invariant="unreadable-file",
                message=str(error), location=path,
            ))
    findings += analyze_sources(sources)
    findings.sort(key=_sort_key)
    return findings


def summary_line(findings: List[Finding]) -> str:
    errors = [f for f in findings if f.severity == "error"]
    return f"{len(findings)} finding(s), {len(errors)} error(s)"


def render_text(findings: List[Finding]) -> str:
    """One line per finding, then the summary line the CI gate greps."""
    return "\n".join([finding.describe() for finding in findings]
                     + [summary_line(findings)])
