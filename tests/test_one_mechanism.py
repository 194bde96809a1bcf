"""One mechanism per job: source guards against a second copy coming back.

Each simplification that folded parallel mechanisms into one left a
pattern that must not reappear in the source: a second data plane, a
second campaign runner, a block file system or fsck checker with its
own namespace code or tree walk, a driver with its own consistency
check, code that patches a built harness, the visited-set merge API,
a worker that ships its finds before its unit is done, a restore that
keeps its checkpoint for another, a trail minimiser that rewinds a
long-lived harness beside the fresh one each probe builds, a second
record of a run, and a trail captured anywhere but where its run ran.
Each guard is a ``grep -rnE`` over the same files: it lists every
matching ``path:line`` and must find none.  Text files are searched;
byte-code caches are not.
"""

from __future__ import annotations

import fnmatch
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

BLOCK_FS_OPERATIONS = (
    "lookup|getattr|getdents|create|mkdir|symlink|readlink|link|unlink|"
    "rmdir|rename|read|write|truncate|setattr|setxattr|getxattr|"
    "listxattr|removexattr")

#: (id, pattern, searched paths, file-name filter, files allowed to match)
GUARDS = [
    ("one data plane", r"shared_memory", ["src"], None, ()),
    ("one campaign runner", r"run_unit\(", ["src"], None,
     ("src/repro/dist/worker.py", "src/repro/dist/coordinator.py")),
    ("one POSIX layer for the block file systems",
     rf"^    def ({BLOCK_FS_OPERATIONS})\(",
     ["src/repro/fs/ext2.py", "src/repro/fs/ext4.py", "src/repro/fs/xfs.py"],
     None, ()),
    ("one fsck walk for the block images",
     r"^    def (_walk_tree|_audit_directory|_audit_allocation|_read_file"
     r"|_finding)\(",
     ["src/repro/analysis/fsck/ext2.py", "src/repro/analysis/fsck/xfs.py"],
     None, ()),
    ("one tree audit for every fsck checker",
     r"^    def (_walk_tree|_audit_directory|_audit_allocation|_check_closure"
     r"|_finding)\(|stack\.pop\(",
     ["src/repro/analysis/fsck/generic.py",
      "src/repro/analysis/fsck/jffs2.py"], None, ()),
    ("one jffs2 log reader", r"HEADER_(FMT|SIZE)|NODE_MAGIC|node_crc|struct\.",
     ["src/repro/analysis/fsck/jffs2.py"], None, ()),
    ("one live consistency check", r"def check_consistency\(",
     ["src/repro/fs", "src/repro/verifs", "src/repro/fuse"], "*.py", ()),
    ("nothing patches a built harness", r"\.options\.[A-Za-z_]+ *=[^=]",
     ["src"], "*.py", ()),
    ("one visited table, no merge API",
     r"VisitedStateService|merge_into|import_seen|merge_from|import_snapshot",
     ["src"], None, ()),
    ("one hand-off per unit",
     r"LRUSet|ShippingVisitedTable|batch_size|ship_batch|suppressed_hashes",
     ["src"], None, ()),
    ("one restore per checkpoint", r"restore_reusable", ["src"], None, ()),
    ("one prober",
     r"def reset\(|_pristine|_HybridTest|^class (?!_FreshProber\b)\w*Prober\b",
     ["src/repro/trail"], None, ()),
    ("one run record", r"class UnitResult\b", ["src/repro"], None, ()),
    ("one trail capture", r"(?<!def )capture_trail\(", ["src/repro"], None,
     ("src/repro/core/mcfs.py",)),
    # a spec runs as a campaign's units; MCFS.run_* is the library call
    ("one run path", r"(?<!explorer)\.run_(dfs|random)\(|def from_result\(",
     ["src/repro"], None, ("src/repro/dist/worker.py",
                           "src/repro/core/mcfs.py", "src/repro/__init__.py")),
]


def grep(pattern, paths, include=None):
    """``grep -rnE pattern paths``: every matching ``path:line: text``."""
    regex = re.compile(pattern)
    found = []
    for name in paths:
        root = ROOT / name
        files = sorted(root.rglob("*")) if root.is_dir() else [root]
        for path in files:
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            if include is not None and not fnmatch.fnmatch(path.name,
                                                           include):
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            relative = path.relative_to(ROOT).as_posix()
            found += [f"{relative}:{number}: {line.strip()}"
                      for number, line in enumerate(text.splitlines(), 1)
                      if regex.search(line)]
    return found


@pytest.mark.parametrize("pattern,paths,include,allowed",
                         [guard[1:] for guard in GUARDS],
                         ids=[guard[0] for guard in GUARDS])
def test_source_guard(pattern, paths, include, allowed):
    hits = [hit for hit in grep(pattern, paths, include)
            if hit.split(":", 1)[0] not in allowed]
    assert hits == []


def test_guards_see_what_they_forbid():
    """A guard that can match nothing guards nothing: each pattern finds
    the line it is written against in a file where it belongs."""
    assert grep(GUARDS[1][1], ["src/repro/dist/coordinator.py"])
    assert grep(GUARDS[3][1], ["src/repro/analysis/fsck/image.py"])
    assert grep(GUARDS[6][1], ["src/repro/kernel"], "*.py")
    assert grep(GUARDS[8][1], ["tests/test_one_mechanism.py"])
    assert grep(GUARDS[9][1], ["tests/test_dist.py"])
    assert grep(GUARDS[10][1], ["CHANGES.md"])
    assert grep(GUARDS[11][1], ["src/repro/clock.py", "CHANGES.md"])
    assert grep(GUARDS[12][1], ["tests/test_one_mechanism.py"])
    assert grep(GUARDS[13][1], ["src/repro/core/mcfs.py"])
    assert grep(GUARDS[14][1], ["src/repro/dist/worker.py"])
