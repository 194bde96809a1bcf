"""Determinism linter: rule units, pragma allowlisting, CI enforcement.

The last test is the gate: it runs ``python -m repro lint --strict``
over the installed package exactly the way CI does, so any future
nondeterminism hazard (unseeded RNG, wall-clock read, set-order
dependence) fails the tier-1 suite until fixed or justified inline.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import repro
from repro.analysis.lint import iter_python_files, lint_source, run_lint


def lint(snippet: str):
    return lint_source(textwrap.dedent(snippet), "snippet.py")


def invariants(snippet: str):
    return [f.invariant for f in lint(snippet)]


# ---------------------------------------------------------------- the rules --
def test_unseeded_module_global_random():
    assert invariants("""
        import random
        x = random.randint(0, 5)
    """) == ["unseeded-random"]


def test_unseeded_random_constructor():
    assert invariants("""
        import random
        rng = random.Random()
    """) == ["unseeded-random"]


def test_seeded_random_is_fine():
    assert invariants("""
        import random
        rng = random.Random(1234)
        value = rng.random()
    """) == []


def test_from_import_random_functions():
    assert invariants("""
        from random import choice
        pick = choice([1, 2, 3])
    """) == ["unseeded-random"]


def test_wall_clock_calls():
    assert invariants("""
        import time
        from datetime import datetime
        a = time.time()
        b = time.perf_counter()
        c = datetime.now()
    """) == ["wall-clock"] * 3


def test_from_import_wall_clock():
    assert invariants("""
        from time import monotonic
        t = monotonic()
    """) == ["wall-clock"]


def test_time_sleep_is_not_flagged():
    assert invariants("""
        import time
        time.sleep(0)
    """) == []


def test_builtin_hash():
    assert invariants("x = hash('key')") == ["builtin-hash"]


def test_unordered_iteration_over_set():
    assert invariants("""
        def f():
            items = {3, 1, 2}
            return [i for i in items]
    """) == ["unordered-iteration"]


def test_sorted_set_iteration_is_fine():
    assert invariants("""
        def f(items):
            seen = set(items)
            return [i for i in sorted(seen)]
    """) == []


def test_set_rebound_to_list_is_fine():
    assert invariants("""
        def f(items):
            seen = set(items)
            seen = sorted(seen)
            return [i for i in seen]
    """) == []


def test_direct_set_expression_iteration():
    assert invariants("""
        for name in {"b", "a"}:
            print(name)
    """) == ["unordered-iteration"]


def test_raw_visited_state_access():
    assert invariants("count = len(table._seen)") == ["raw-visited-state"]


def test_raw_visited_state_allowed_inside_mc_package():
    path = os.path.join(os.path.dirname(repro.__file__),
                        "mc", "hashtable.py")
    findings = run_lint([path])
    assert not [f for f in findings if f.invariant == "raw-visited-state"]


def test_visited_table_public_api_is_fine():
    assert invariants("seen = table.export_seen()") == []


def test_raw_device_data_access():
    assert invariants("groups = device._chunk_groups") == ["raw-device-data"]
    assert invariants("device._chunk_groups[0] = ()") == ["raw-device-data"]


def test_raw_device_data_allowed_inside_storage_package():
    path = os.path.join(os.path.dirname(repro.__file__),
                        "storage", "device.py")
    findings = run_lint([path])
    assert not [f for f in findings if f.invariant == "raw-device-data"]


def test_device_public_api_is_fine():
    assert invariants("token = device.snapshot_chunks()") == []
    assert invariants("chunks = token.chunks") == []


def test_raw_entry_cache_access():
    assert invariants("store = cache._merkle") == ["raw-entry-cache"]
    assert invariants("memo = record._enc_memo") == ["raw-entry-cache"]


def test_raw_entry_cache_allowed_inside_abstraction_module():
    path = os.path.join(os.path.dirname(repro.__file__),
                        "core", "abstraction.py")
    findings = run_lint([path])
    assert not [f for f in findings if f.invariant == "raw-entry-cache"]


def test_entry_cache_public_api_is_fine():
    assert invariants("records = cache.refresh(kernel, '/mnt', mount)") == []
    assert invariants("cache.invalidate()") == []


def test_syntax_error_is_reported_not_raised():
    assert invariants("def broken(:\n") == ["syntax-error"]


def test_unsorted_fs_listing():
    assert invariants("""
        import os
        names = os.listdir("/tmp")
    """) == ["unsorted-fs-listing"]


def test_unsorted_fs_listing_variants():
    assert invariants("""
        import glob
        import os
        a = glob.glob("*.img")
        b = glob.iglob("*.img")
        c = os.scandir(".")
    """) == ["unsorted-fs-listing"] * 3


def test_from_import_listing_and_alias():
    assert invariants("""
        from os import listdir as ls
        names = ls("/tmp")
    """) == ["unsorted-fs-listing"]


def test_iterdir_listing():
    assert invariants("""
        def walk(path):
            return [p for p in path.iterdir()]
    """) == ["unsorted-fs-listing"]


def test_sorted_listing_is_fine():
    assert invariants("""
        import os
        import glob
        names = sorted(os.listdir("/tmp"))
        images = sorted(glob.glob("*.img"))
    """) == []


def test_set_pop():
    assert invariants("""
        def f(items):
            pending = set(items)
            return pending.pop()
    """) == ["set-pop"]


def test_set_pop_on_literal():
    assert invariants("""
        def f():
            work = {1, 2, 3}
            while work:
                work.pop()
    """) == ["set-pop"]


def test_dict_and_list_pop_are_fine():
    assert invariants("""
        def f(mapping, items):
            a = mapping.pop("key")
            b = items.pop()
            c = mapping.pop("key", None)
            return a, b, c
    """) == []


def test_set_rebound_before_pop_is_fine():
    assert invariants("""
        def f(items):
            work = set(items)
            work = sorted(work)
            return work.pop()
    """) == []


# ------------------------------------------------------------------ pragmas --
def test_pragma_with_justification_suppresses():
    assert invariants("""
        def f(items):
            seen = set(items)
            for i in seen:  # det-lint: allow[unordered-iteration] order-free count
                pass
    """) == []


def test_bare_pragma_is_itself_a_finding():
    assert invariants("""
        def f(items):
            seen = set(items)
            for i in seen:  # det-lint: allow[unordered-iteration]
                pass
    """) == ["bare-pragma"]


def test_unused_pragma_is_warned():
    findings = lint("""
        value = 1  # det-lint: allow[wall-clock] no clock here at all
    """)
    assert [f.invariant for f in findings] == ["unused-pragma"]
    assert findings[0].severity == "warn"


def test_pragma_in_docstring_is_ignored():
    assert invariants('''
        def f():
            """Example: use # det-lint: allow[wall-clock] reason here."""
            return 1
    ''') == []


def test_wrong_rule_pragma_does_not_suppress():
    assert invariants("""
        import time
        t = time.time()  # det-lint: allow[unordered-iteration] wrong rule
    """) == ["unused-pragma", "wall-clock"]


# ------------------------------------------------------------ the codebase --
def test_repro_package_lints_clean():
    findings = run_lint()
    assert findings == [], "\n".join(f.describe() for f in findings)


def test_runner_walks_the_whole_package():
    files = iter_python_files(run_lint.__globals__["default_paths"]())
    names = {os.path.basename(f) for f in files}
    assert {"explorer.py", "ext2.py", "cli.py", "clock.py"} <= names
    assert len(files) > 40


def test_cli_lint_strict_passes_as_in_ci():
    """The CI gate: ``python -m repro analyze --strict`` must exit 0."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", "--strict"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s), 0 error(s)" in proc.stdout
