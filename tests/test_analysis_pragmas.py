"""Pragma machinery edge cases (repro.analysis.pragmas).

The machinery is applied once per file over the findings of every
rule, so the edge cases are tested once here: pragmas on multi-line
statements, stacked pragmas in one comment, pragma-shaped text in
strings, and pragmas that suppress nothing -- for any rule id at all.
"""

from __future__ import annotations

import textwrap

from repro.analysis.analyze import analyze_sources
from repro.analysis.findings import Finding
from repro.analysis.pragmas import apply_pragmas, collect_pragmas
from repro.cli import main


def lint(snippet: str):
    return analyze_sources({"snippet.py": textwrap.dedent(snippet)})


def invariants(snippet: str):
    return [f.invariant for f in lint(snippet)]


def finding(invariant: str, line: int, end_line=None, severity="error"):
    detail = {"line": line}
    if end_line is not None:
        detail["end_line"] = end_line
    return Finding(checker="test", invariant=invariant, message="x",
                   severity=severity, location=f"snippet.py:{line}",
                   detail=detail)


# -------------------------------------------------------- collect_pragmas --
def test_collect_maps_line_to_rule_and_justification():
    pragmas = collect_pragmas(
        "x = 1  # det-lint: allow[wall-clock] frozen fixture\n")
    assert pragmas == {1: {"wall-clock": "frozen fixture"}}


def test_stacked_pragmas_in_one_comment():
    pragmas = collect_pragmas(
        "x = f()  # det-lint: allow[set-pop] empty ok"
        "  # det-lint: allow[unordered-iteration] one elem\n")
    assert pragmas[1] == {"set-pop": "empty ok",
                          "unordered-iteration": "one elem"}


def test_pragma_in_string_is_not_collected():
    pragmas = collect_pragmas(
        's = "# det-lint: allow[wall-clock] not a comment"\n'
        'f = f"# det-lint: allow[set-pop] {s}"\n')
    assert pragmas == {}


# ------------------------------------------------- multi-line statements --
def test_pragma_on_closing_line_of_multiline_statement():
    assert invariants("""
        import time
        t = time.time(
        )  # det-lint: allow[wall-clock] span reaches the closing paren
    """) == []


def test_pragma_on_opening_line_of_multiline_statement():
    assert invariants("""
        import time
        t = time.time(  # det-lint: allow[wall-clock] opening line works too
        )
    """) == []


def test_span_matching_uses_end_line():
    source = "x = (\n    1\n)\n"
    pragmas_line = 3
    suppressed = apply_pragmas(
        [finding("wall-clock", 1, end_line=3)],
        "x = (\n    1\n)  # det-lint: allow[wall-clock] spans lines 1-3\n",
        "snippet.py")
    assert suppressed == []
    # without the end_line the span is one line and the pragma misses
    missed = apply_pragmas(
        [finding("wall-clock", 1)],
        source + "# det-lint: allow[wall-clock] wrong line\n",
        "snippet.py")
    assert [f.invariant for f in missed] == ["wall-clock", "unused-pragma"]


# --------------------------------------------------- strings vs comments --
def test_fstring_pragma_neither_suppresses_nor_bare_flags():
    assert invariants('''
        def f(x):
            return f"# det-lint: allow[wall-clock] {x}"
    ''') == []


def test_bare_pragma_in_comment_after_fstring_line():
    assert invariants("""
        import time
        t = time.time()  # det-lint: allow[wall-clock]
    """) == ["bare-pragma"]


def test_stacked_pragma_one_bare_one_justified():
    findings = lint("""
        def f(items):
            seen = set(items)
            for i in seen:  # det-lint: allow[unordered-iteration] ok justified  # det-lint: allow[set-pop]
                pass
    """)
    # the justified pragma suppresses; the stacked bare one matches no
    # set-pop finding, so it is unused (not bare: bare needs a match)
    assert [f.invariant for f in findings] == ["unused-pragma"]


# ------------------------------------------------------- unused pragmas ----
def test_active_rule_pragma_unused_is_flagged():
    flagged = apply_pragmas(
        [], "x = 1  # det-lint: allow[restore-blind] stale reason\n",
        "snippet.py")
    assert [f.invariant for f in flagged] == ["unused-pragma"]


def test_pragmas_for_unknown_or_retired_rules_are_unused(tmp_path, capsys):
    module = tmp_path / "m.py"
    module.write_text(textwrap.dedent("""\
        def f():
            return 1  # det-lint: allow[no-such-rule] typo in the id
        def g():
            return 2  # det-lint: allow[raise-after-mutate] stale
        def h():
            return 3  # det-lint: allow[dirty-mark-missing] stale
    """))
    assert main(["analyze", "--strict", str(module)]) == 1
    output = capsys.readouterr().out.splitlines()
    assert output == [
        f"[warn] lint.determinism/unused-pragma @ {module}:2: pragma "
        f"allow[no-such-rule] suppresses nothing",
        f"[warn] lint.determinism/unused-pragma @ {module}:4: pragma "
        f"allow[raise-after-mutate] suppresses nothing",
        f"[warn] lint.determinism/unused-pragma @ {module}:6: pragma "
        f"allow[dirty-mark-missing] suppresses nothing",
        "3 finding(s), 0 error(s)",
    ]
