#!/usr/bin/env python3
"""Reach census: which functions in ``src/repro`` does a user path enter?

Run from the repository root::

    python3 tools/reach.py            # users only
    python3 tools/reach.py --tests    # users, then tier-1 (tests/) as well
    python3 tools/reach.py --list     # also print every unentered function

A *user* is anything outside the test suite that drives the checker:

* every ``BENCHMARK.json`` workload at seed 7 for one second, untraced
  and traced (``--trace 0`` and ``--trace 1``);
* ``pytest benchmarks/``;
* every script in ``examples/``;
* every step of every job in ``.github/workflows/ci.yml`` except package
  installs and the tier-1 step (``pytest tests/``), one job at a time in
  step order, as CI runs them.

Each user runs in its own copy of the tree (so nothing it writes lands in
the checkout) with a ``python``/``python3`` shim first on ``PATH``: it
runs the interpreter running the census with a ``sitecustomize`` in
front of ``PYTHONPATH``.  Every Python process a user starts therefore
records the code objects it enters with ``sys.settrace`` (call events
only, no line tracing) and writes them out when it exits.  Three things would otherwise hide entries:

* forked workers inherit the tracer but leave through ``os._exit``, which
  skips ``atexit``: ``os._exit`` is wrapped to write the record first, and
  ``os.register_at_fork`` starts the child's record afresh;
* pytest-benchmark turns tracers and profilers off around every timed
  call (``PauseInstrumentation``): ``sys.settrace``/``sys.setprofile``
  are replaced by versions that keep the census tracer installed;
* threads: a new thread installs its tracer by calling ``sys.settrace``
  itself, and the stand-in installs the census tracer there too.

A process killed by a signal (the fleet's SIGKILL chaos tests) writes
nothing; the census is a lower bound on what tier-1 enters.

A function is keyed by ``(file, first line, name)``, where the first line
is that of its first decorator, as in ``co_firstlineno``.  Its *lines*
run from that first line to its last, so a nested ``def``'s lines count
for it and for the function around it.  Every ``def`` in ``src/repro``
counts, nested ones included; lambdas and comprehensions do not.  Each
function lands in one of three bins: entered by a user, entered only by
tier-1 (``--tests``), or entered by nothing.  Without ``--tests`` the
last two are one bin.

A user whose command fails still counts for what it entered; the
failure is printed (``FAILED``) with the command's exit status.  Under
the tracer, assertions on wall time can fail (the abstraction benchmark's
flat-cost check can), and so do the benchmarks' known failures.

Only the standard library is used.  Tier-1 does not run this script.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/repro"
SEED = 7
JOBS = min(2, os.cpu_count() or 1)  # users traced at once

FunctionKey = Tuple[str, int, str]


# ---------------------------------------------------------------- recorder
#
# This half runs inside every traced process: the generated sitecustomize
# loads this file and calls install().

def install(out_dir: str, root: str) -> None:
    """Record every code object this process (and its forks) enters."""
    import atexit
    import threading

    prefix = os.path.join(root, PACKAGE) + os.sep
    state = {"pid": os.getpid(), "seen": {}}

    def tracer(frame, event, arg):
        code = frame.f_code
        state["seen"][id(code)] = code
        return None

    def dump() -> None:
        if state["pid"] != os.getpid():
            return
        state["pid"] = None  # write once per process
        entered = sorted({
            (os.path.relpath(code.co_filename, root), code.co_firstlineno,
             code.co_name)
            for code in list(state["seen"].values())
            if code.co_filename.startswith(prefix)})
        path = os.path.join(out_dir, f"{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(entered, handle)

    def after_fork() -> None:
        state["pid"] = os.getpid()
        state["seen"] = {}

    real_exit = os._exit

    def exit_after_dump(code):
        try:
            dump()
        finally:
            real_exit(code)

    real_settrace = sys.settrace

    def keep_tracer(function) -> None:
        real_settrace(tracer)

    def keep_profile(function) -> None:
        return None

    sys.settrace(tracer)
    threading.settrace(tracer)
    sys.settrace = keep_tracer
    sys.setprofile = keep_profile
    os._exit = exit_after_dump
    os.register_at_fork(after_in_child=after_fork)
    atexit.register(dump)


SITECUSTOMIZE = """\
import os
if os.environ.get("REACH_OUT"):
    import importlib.util
    _spec = importlib.util.spec_from_file_location(
        "_reach_census", os.environ["REACH_TOOL"])
    _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    _module.install(os.environ["REACH_OUT"], os.environ["REACH_ROOT"])
    del _spec, _module
"""

SHIM = """\
#!/bin/sh
PYTHONPATH="{site}${{PYTHONPATH:+:$PYTHONPATH}}" exec {python} "$@"
"""


# ---------------------------------------------------------------- functions

def functions(root: Path) -> Dict[FunctionKey, dict]:
    """Every ``def`` under ``src/repro``, keyed as its code object is."""
    table: Dict[FunctionKey, dict] = {}
    for path in sorted((root / PACKAGE).rglob("*.py")):
        rel = str(path.relative_to(root))
        tree = ast.parse(path.read_text(), filename=rel)
        _collect(tree, rel, "", table)
    return table


def _collect(node, rel: str, prefix: str, table: Dict[FunctionKey, dict]):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            qualname = prefix + child.name
            table[(rel, first, child.name)] = {
                "qualname": qualname, "line": child.lineno,
                "lines": child.end_lineno - first + 1}
            _collect(child, rel, qualname + ".", table)
        elif isinstance(child, ast.ClassDef):
            _collect(child, rel, prefix + child.name + ".", table)
        else:
            _collect(child, rel, prefix, table)


def package_of(rel: str) -> str:
    parts = Path(rel).relative_to(PACKAGE).parts
    return parts[0] if len(parts) > 1 else "(top level)"


# ---------------------------------------------------------------- users

def _unquote(value: str) -> str:
    if value.startswith("'") and value.endswith("'"):
        return value[1:-1].replace("''", "'")
    if value.startswith('"') and value.endswith('"'):
        return re.sub(r'\\(.)', lambda m: {"n": "\n", "t": "\t"}.get(
            m.group(1), m.group(1)), value[1:-1])
    return value


def ci_jobs(workflow: Path) -> Dict[str, List[str]]:
    """``{job: [run script, ...]}`` from a GitHub Actions workflow.

    Reads only what this repository's workflow uses: jobs under
    ``jobs:``, each step's ``run:`` as a plain or quoted scalar or a
    ``|`` block.
    """
    lines = workflow.read_text().splitlines()
    jobs: Dict[str, List[str]] = {}
    job: Optional[str] = None
    in_jobs = False
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if not stripped or stripped.startswith("#"):
            continue
        if indent == 0:
            in_jobs = stripped == "jobs:"
            continue
        if not in_jobs:
            continue
        if indent == 2 and stripped.endswith(":"):
            job = stripped[:-1]
            jobs[job] = []
            continue
        match = re.match(r"(?:- )?run:\s*(.*)$", stripped)
        if job is None or match is None:
            continue
        value = match.group(1)
        if value != "|":
            jobs[job].append(_unquote(value))
            continue
        block: List[str] = []
        while index < len(lines):
            nxt = lines[index]
            if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= indent:
                break
            block.append(nxt)
            index += 1
        body = [b for b in block if b.strip()]
        cut = min(len(b) - len(b.lstrip()) for b in body) if body else 0
        jobs[job].append("\n".join(b[cut:] for b in block).strip() + "\n")
    return jobs


def is_install(script: str) -> bool:
    return "pip install" in script


def is_tier1(script: str) -> bool:
    return re.search(r"pytest\s+tests/", script) is not None


def users(root: Path) -> Dict[str, List[str]]:
    """``{user: [shell script, ...]}``; scripts run in order, one shell each."""
    table: Dict[str, List[str]] = {}
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    command = " ".join(benchmark["command"])
    for workload in benchmark["workloads"]:
        for trace in (0, 1):
            table[f"workload {workload['name']} trace={trace}"] = [
                f"{command} --workload {workload['name']} --seed {SEED} "
                f"--seconds 1 --trace {trace}"]
    table["pytest benchmarks/"] = [
        "PYTHONPATH=src python -m pytest benchmarks/ -q -p no:cacheprovider"
        " || true  # the known failures still count as entries"]
    for example in sorted((root / "examples").glob("*.py")):
        table[f"example {example.name}"] = [
            f"PYTHONPATH=src python examples/{example.name}"]
    for job, scripts in ci_jobs(root / ".github/workflows/ci.yml").items():
        steps = [s for s in scripts if not is_install(s) and not is_tier1(s)]
        if steps:
            table[f"ci {job}"] = steps
    return table


def tier1(root: Path) -> Dict[str, List[str]]:
    scripts = [s for steps in ci_jobs(root / ".github/workflows/ci.yml")
               .values() for s in steps if is_tier1(s)]
    return {"tier-1": scripts}


# ---------------------------------------------------------------- runner

class Census:
    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.site = work / "site"
        self.bin = work / "bin"
        self.site.mkdir()
        self.bin.mkdir()
        (self.site / "sitecustomize.py").write_text(SITECUSTOMIZE)
        for name in ("python", "python3"):
            shim = self.bin / name
            shim.write_text(SHIM.format(site=self.site,
                                        python=sys.executable))
            shim.chmod(shim.stat().st_mode | stat.S_IXUSR)

    def run(self, name: str, scripts: List[str]) -> dict:
        slug = re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-")
        tree = self.work / "trees" / slug
        out = self.work / "records" / slug
        out.mkdir(parents=True)
        shutil.copytree(self.root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".benchmarks", "out", ".bench_*"))
        env = dict(os.environ)
        env.update(REACH_OUT=str(out), REACH_ROOT=str(tree),
                   REACH_TOOL=str(Path(__file__).resolve()),
                   PATH=f"{self.bin}{os.pathsep}{env.get('PATH', '')}",
                   PYTHONPATH=str(self.site))
        failed, leftovers = [], []
        start = time.monotonic()
        with open(self.work / f"{slug}.log", "w") as log:
            for script in scripts:
                proc = subprocess.Popen(
                    ["bash", "--noprofile", "--norc", "-eo", "pipefail",
                     "-c", script], cwd=tree, env=env, stdout=log,
                    stderr=subprocess.STDOUT, start_new_session=True)
                code = proc.wait()
                try:  # a daemon a step left behind outlives its job only
                    os.killpg(proc.pid, 0)
                    leftovers.append(proc.pid)
                except ProcessLookupError:
                    pass
                if code != 0:
                    failed.append((script.splitlines()[0], code))
        for pgid in leftovers:
            try:
                os.killpg(pgid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        entered: Set[FunctionKey] = set()
        for record in out.glob("*.json"):
            entered.update(tuple(row) for row in json.loads(record.read_text()))
        shutil.rmtree(tree, ignore_errors=True)
        return {"name": name, "failed": failed, "entered": entered,
                "processes": len(list(out.glob("*.json"))),
                "seconds": time.monotonic() - start}


def run_all(census: Census, table: Dict[str, List[str]],
            progress) -> List[dict]:
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        futures = [pool.submit(census.run, name, scripts)
                   for name, scripts in table.items()]
        results = []
        for future in futures:
            result = future.result()
            progress(result)
            results.append(result)
    return results


# ---------------------------------------------------------------- report

def tabulate(table: Dict[FunctionKey, dict], by_users: Set[FunctionKey],
             by_tests: Optional[Set[FunctionKey]]) -> List[dict]:
    rows: Dict[str, dict] = {}
    for key, info in table.items():
        row = rows.setdefault(package_of(key[0]), dict.fromkeys(
            ("functions", "lines", "unentered", "unentered_lines",
             "nothing", "nothing_lines"), 0))
        row["functions"] += 1
        row["lines"] += info["lines"]
        if key in by_users:
            continue
        row["unentered"] += 1
        row["unentered_lines"] += info["lines"]
        if by_tests is not None and key not in by_tests:
            row["nothing"] += 1
            row["nothing_lines"] += info["lines"]
    ordered = [dict(package=name, **rows[name]) for name in sorted(rows)]
    total = {"package": "total"}
    for field in ordered[0]:
        if field != "package":
            total[field] = sum(row[field] for row in ordered)
    return ordered + [total]


def markdown(rows: List[dict], tests: bool) -> str:
    head = ["package", "functions", "body lines", "no user (fns)",
            "no user (lines)"]
    if tests:
        head += ["nothing (fns)", "nothing (lines)"]
    out = ["| " + " | ".join(head) + " |",
           "|" + "---|" * len(head)]
    for row in rows:
        cells = [f"`{row['package']}`" if row["package"] != "total"
                 else "**total**", row["functions"], row["lines"],
                 row["unentered"], row["unentered_lines"]]
        if tests:
            cells += [row["nothing"], row["nothing_lines"]]
        out.append("| " + " | ".join(str(c) for c in cells) + " |")
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Which functions in src/repro does a user path enter?")
    parser.add_argument("--tests", action="store_true",
                        help="also run tier-1, splitting 'entered only by "
                             "tests' from 'entered by nothing'")
    parser.add_argument("--list", action="store_true",
                        help="print every function no user enters")
    args = parser.parse_args(argv)

    table = functions(ROOT)
    wanted = users(ROOT)
    if args.tests:
        wanted.update(tier1(ROOT))

    def progress(result: dict) -> None:
        status = "ok" if not result["failed"] else f"FAILED {result['failed']}"
        print(f"# {result['name']}: {len(result['entered'])} functions, "
              f"{result['processes']} processes, "
              f"{result['seconds']:.0f}s, {status}", file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        results = run_all(Census(ROOT, Path(work)), wanted, progress)
    by_users: Set[FunctionKey] = set()
    by_tests: Optional[Set[FunctionKey]] = set() if args.tests else None
    for result in results:
        target = by_tests if result["name"] == "tier-1" else by_users
        target.update(result["entered"])

    rows = tabulate(table, by_users, by_tests)
    print(markdown(rows, args.tests))
    unentered = sorted(
        (key[0], info["line"], info["qualname"], info["lines"],
         "nothing" if by_tests is not None and key not in by_tests
         else ("tests" if by_tests is not None else "no user"))
        for key, info in table.items() if key not in by_users)
    if args.list:
        for rel, line, qualname, lines, where in unentered:
            print(f"{rel}:{line}\t{qualname}\t{lines}\t{where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
