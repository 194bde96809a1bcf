"""Whole-program analyzer: model units, the restore-blind pass, the pipeline.

The positive tests double as the analyzer's *mutation self-tests*: each
fixture tree seeds one violation of one invariant and asserts the pass
flags exactly it; the paired clean fixture asserts silence.  If a pass
regresses into blindness (or into noise), these fail first.
"""

from __future__ import annotations

import os
import textwrap

from repro.analysis.analyze import run_analysis, summary_line
from repro.analysis.findings import Finding
from repro.analysis.static import ProjectModel, run_snapshot_pass
from repro.analysis.static.model import module_name_for, reach


def make_tree(tmp_path, files):
    """Write a package tree; every directory gets an ``__init__.py``."""
    paths = []
    for rel, source in sorted(files.items()):
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        ancestor = target.parent
        while ancestor != tmp_path:
            init = ancestor / "__init__.py"
            if not init.exists():
                init.write_text("")
            paths.append(str(init))
            ancestor = ancestor.parent
        target.write_text(textwrap.dedent(source))
        paths.append(str(target))
    return sorted(set(paths))


def model_of(tmp_path, files):
    model = ProjectModel()
    for path in make_tree(tmp_path, files):
        with open(path, encoding="utf-8") as handle:
            model.add_file(path, handle.read())
    return model


# ------------------------------------------------------------------- model --
def test_module_name_walks_init_chain(tmp_path):
    paths = make_tree(tmp_path, {"pkg/sub/mod.py": "x = 1\n"})
    mod = [p for p in paths if p.endswith("mod.py")][0]
    assert module_name_for(mod).endswith("pkg.sub.mod")
    init = [p for p in paths if p.endswith(os.path.join("sub",
                                                        "__init__.py"))][0]
    assert module_name_for(init).endswith("pkg.sub")


def test_mro_methods_shadow_base(tmp_path):
    model = model_of(tmp_path, {"pkg/a.py": """
        class Base:
            def ping(self):
                return 1

            def pong(self):
                return 2

        class Child(Base):
            def ping(self):
                return 3
    """})
    child = [c for q, c in model.classes.items() if c.name == "Child"][0]
    table = child.mro_methods(model)
    assert table["ping"].owner.endswith("Child")
    assert table["pong"].owner.endswith("Base")


def test_cross_module_base_resolution(tmp_path):
    model = model_of(tmp_path, {
        "pkg/base.py": """
            class Store:
                def restore(self):
                    self.data = {}
        """,
        "pkg/user.py": """
            from pkg.base import Store

            class Device(Store):
                pass
        """,
    })
    device = [c for q, c in model.classes.items() if c.name == "Device"][0]
    assert "restore" in device.mro_methods(model)


def test_reach_follows_calls_and_method_reads(tmp_path):
    model = model_of(tmp_path, {"pkg/a.py": """
        class C:
            def top(self):
                return self.helper()

            def helper(self):
                return self.leaf

            @property
            def leaf(self):
                return 1

            def unrelated(self):
                return 0
    """})
    cls = [c for q, c in model.classes.items() if c.name == "C"][0]
    closure = reach(cls.mro_methods(model), ["top"])
    assert closure == {"top", "helper", "leaf"}


# -------------------------------------------- snapshot-completeness pass --
SNAPSHOT_SEEDED = {"pkg/dev.py": """
    class Tracker:
        def __init__(self):
            self.table = {}
            self.epoch = 0

        def snapshot(self):
            return dict(self.table)

        def restore(self, token):
            self.table = dict(token)

        def advance(self):
            self.epoch = self.epoch + 1
"""}

SNAPSHOT_CLEAN = {"pkg/dev.py": """
    class Tracker:
        def __init__(self):
            self.table = {}
            self.epoch = 0

        def snapshot(self):
            return (dict(self.table), self.epoch)

        def restore(self, token):
            self.table = dict(token[0])
            self.epoch = token[1]

        def advance(self):
            self.epoch = self.epoch + 1
"""}


def test_restore_blind_attr_is_flagged(tmp_path):
    findings = run_snapshot_pass(model_of(tmp_path, SNAPSHOT_SEEDED))
    assert [f.invariant for f in findings] == ["restore-blind"]
    assert findings[0].detail["symbol"] == "Tracker.epoch"
    assert findings[0].severity == "error"


def test_snapshot_covered_attr_is_clean(tmp_path):
    assert run_snapshot_pass(model_of(tmp_path, SNAPSHOT_CLEAN)) == []


def test_delegating_wrapper_is_out_of_scope(tmp_path):
    findings = run_snapshot_pass(model_of(tmp_path, {"pkg/wrap.py": """
        class PassThrough:
            def __init__(self, inner):
                self.inner = inner

            def snapshot(self):
                return self.inner.snapshot()

            def restore(self, token):
                self.inner.restore(token)

            def touch(self):
                self.inner.counter.bump()
    """}))
    assert findings == []


def test_restore_blind_seen_through_inherited_surface(tmp_path):
    findings = run_snapshot_pass(model_of(tmp_path, {
        "pkg/base.py": """
            class SnapBase:
                def snapshot(self):
                    return dict(self.state)

                def restore(self, token):
                    self.state = dict(token)
        """,
        "pkg/driver.py": """
            from pkg.base import SnapBase

            class Driver(SnapBase):
                def __init__(self):
                    self.state = {}

                def record(self):
                    self.audit_log = []
        """,
    }))
    assert [f.detail["symbol"] for f in findings] == ["Driver.audit_log"]


# ------------------------------------------------------- pragma interplay --
def test_static_finding_suppressed_by_pragma(tmp_path):
    files = {"pkg/dev.py": SNAPSHOT_SEEDED["pkg/dev.py"].replace(
        "self.epoch = self.epoch + 1",
        "self.epoch = self.epoch + 1  # det-lint: allow[restore-blind] "
        "a counter of real events")}
    paths = make_tree(tmp_path, files)
    assert run_analysis(paths) == []


# ------------------------------------------------------------- full engine --
def test_seeded_tree_yields_every_invariant(tmp_path):
    files = {}
    files.update(SNAPSHOT_SEEDED)
    files["pkg/rng.py"] = """
        import random

        value = random.randint(0, 5)
    """
    paths = make_tree(tmp_path, files)
    invariants = sorted(f.invariant for f in run_analysis(paths))
    assert invariants == ["restore-blind", "unseeded-random"]


def test_clean_tree_yields_nothing(tmp_path):
    files = {}
    files.update(SNAPSHOT_CLEAN)
    paths = make_tree(tmp_path, files)
    assert run_analysis(paths) == []


# ------------------------------------------------------------------ output --
def finding(invariant, severity):
    return Finding(checker="t", invariant=invariant, message="m",
                   severity=severity, location="a.py:10")


def test_summary_line_counts_errors():
    findings = [finding("restore-blind", "error"),
                finding("unused-pragma", "warn")]
    assert summary_line(findings) == "2 finding(s), 1 error(s)"


# --------------------------------------------------------------- the gate --
def test_shipped_tree_analyzes_clean():
    findings = run_analysis()
    assert findings == [], "\n".join(f.describe() for f in findings)

