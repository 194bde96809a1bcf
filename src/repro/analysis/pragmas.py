"""Inline pragma allowlisting shared by every analysis pass.

A finding is suppressed by an inline pragma **with a justification**::

    for block in blocks:  # det-lint: allow[unordered-iteration] order-free count

``repro analyze`` applies the pragmas of each file once, over the
findings of every rule, so one pragma syntax covers the determinism
lint and the whole-program passes alike.  Semantics:

* Pragmas live in real comments only (tokenize-based collection), so a
  docstring or f-string that merely *documents* the syntax never
  suppresses anything -- and never triggers ``bare-pragma`` either.
* Several pragmas may be stacked in one comment::

      x = f()  # det-lint: allow[set-pop] empty ok  # det-lint: allow[unordered-iteration] one elem

* A finding spanning a multi-line statement is matched by a pragma on
  *any* line of its span (``detail["line"]`` .. ``detail["end_line"]``),
  so the pragma can sit on the readable closing line.
* A matching pragma without a justification keeps the finding suppressed
  but reports ``bare-pragma``, so the allowlist stays self-documenting.
* A pragma that suppresses nothing is reported as ``unused-pragma``
  (warn) -- including one naming a rule that does not exist, so a typo
  or a retired rule id cannot linger in the allowlist.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.findings import Finding

#: the justification runs to the next ``#`` so stacked pragmas in one
#: comment do not swallow each other
PRAGMA_RE = re.compile(r"#\s*det-lint:\s*allow\[([a-z-]+)\]\s*([^#]*)")

#: checker name used for the pragma meta-findings
PRAGMA_CHECKER = "lint.determinism"


def collect_pragmas(source: str) -> Dict[int, Dict[str, str]]:
    """Map ``line -> {rule: justification}`` for every pragma comment."""
    pragmas: Dict[int, Dict[str, str]] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            for match in PRAGMA_RE.finditer(token.string):
                line_pragmas = pragmas.setdefault(token.start[0], {})
                line_pragmas[match.group(1)] = match.group(2).strip()
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return pragmas


def _finding_span(finding: Finding) -> Tuple[int, int]:
    line = int(finding.detail.get("line", 0))
    end_line = int(finding.detail.get("end_line", line))
    return line, max(line, end_line)


def apply_pragmas(findings: Iterable[Finding], source: str,
                  path: str) -> List[Finding]:
    """Filter all of one file's ``findings`` through its pragmas.

    Returns the surviving findings plus any ``bare-pragma`` /
    ``unused-pragma`` meta-findings, sorted by line then invariant.
    """
    pragmas = collect_pragmas(source)
    kept: List[Finding] = []
    used: Set[Tuple[int, str]] = set()
    for finding in findings:
        start, end = _finding_span(finding)
        matched: Optional[Tuple[int, str]] = None
        for line in range(start, end + 1):
            reason = pragmas.get(line, {}).get(finding.invariant)
            if reason is not None:
                matched = (line, finding.invariant)
                break
        if matched is None:
            kept.append(finding)
            continue
        used.add(matched)
        line = matched[0]
        if not pragmas[line][finding.invariant]:
            kept.append(Finding(
                checker=PRAGMA_CHECKER, invariant="bare-pragma",
                message=f"pragma allow[{finding.invariant}] needs a one-line "
                        f"justification", location=f"{path}:{line}",
                detail={"line": line},
            ))
    for line in sorted(pragmas):
        for rule in sorted(pragmas[line]):
            if (line, rule) in used:
                continue
            kept.append(Finding(
                checker=PRAGMA_CHECKER, invariant="unused-pragma",
                message=f"pragma allow[{rule}] suppresses nothing",
                severity="warn", location=f"{path}:{line}",
                detail={"line": line},
            ))
    kept.sort(key=lambda f: (f.detail.get("line", 0), f.invariant, f.message))
    return kept
