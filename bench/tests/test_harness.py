"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run as bench_run  # noqa: E402
from tracer import TRACED_FLAG, Tracer  # noqa: E402
from workloads import TraceCounters, make_workloads  # noqa: E402

RUN = os.path.join(BENCH_DIR, "run.py")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_suite(tmp_path_factory):
    """One ``run.py --quick`` over the whole battery."""
    out = tmp_path_factory.mktemp("quick")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, RUN, "--quick", "--out", str(out)],
                          stdout=subprocess.PIPE, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    with open(out / "results.json") as handle:
        results = json.load(handle)
    return done, elapsed, results, out


def _traced_classes():
    """Every attribute of a loaded ``repro`` class still carrying a wrapper."""
    leftovers = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for value in list(vars(module).values()):
            if not isinstance(value, type):
                continue
            for attribute, member in list(vars(value).items()):
                if getattr(member, TRACED_FLAG, False):
                    leftovers.append(f"{value.__qualname__}.{attribute}")
    return leftovers


def test_quick_suite_is_quick_and_correct(quick_suite):
    done, elapsed, results, _out = quick_suite
    assert done.returncode == 0, done.stdout
    assert elapsed < 30, f"--quick took {elapsed:.1f} s"
    assert results["failed"] == 0 and results["failed_ratio"] == 0
    assert results["attempted"] > 0
    for key in ("nproc", "python", "commit", "loadavg_1m", "noisy"):
        assert key in results


def test_every_declared_name_is_reported_with_a_unit(quick_suite, declaration):
    done, _elapsed, results, _out = quick_suite
    printed = {}
    for line in done.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] in results["workloads"]:
            printed[(fields[0], fields[1])] = fields[3]
    for workload in declaration["workloads"]:
        name = workload["name"]
        assert NAME.match(name)
        reported = results["workloads"][name]
        for metric in declaration["end_to_end"]:
            assert NAME.match(metric["name"])
            row = reported["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"]
            assert row["median"] > 0, (name, metric["name"])
            assert row["q1"] <= row["median"] <= row["q3"]
            assert printed[(name, metric["name"])] == metric["unit"]
        for metric in declaration["per_layer"]:
            assert NAME.match(metric["name"])
            assert metric["name"] in reported["per_layer"]
            assert printed[(name, metric["name"])] == metric["unit"]


def test_self_times_and_unattributed_account_for_the_traced_wall(quick_suite):
    _done, _elapsed, results, out = quick_suite
    for name, reported in results["workloads"].items():
        with open(out / reported["trace_file"]) as handle:
            trace = json.load(handle)
        wall = trace["traced_wall_s"]
        attributed = sum(trace["layer_self_s"].values())
        unattributed = reported["per_layer"]["trace.unattributed_ratio"]
        assert 0.0 <= unattributed < 1.0
        assert attributed + unattributed * wall == pytest.approx(
            wall, rel=1e-4), name
        # aggregates and span records describe the same calls
        spans = trace["spans"]
        assert len(spans["name"]) == len(spans["parent"]) \
            == len(spans["start_us"]) == len(spans["dur_us"])
        assert all(parent < row for row, parent in enumerate(spans["parent"]))


def test_traced_run_is_within_twice_the_untraced_wall(quick_suite):
    _done, _elapsed, results, _out = quick_suite
    for name, reported in results["workloads"].items():
        ratio = reported["per_layer"]["trace.overhead_ratio"]
        # quick rounds last milliseconds, so leave room for noise
        assert 0.3 < ratio < 2.5, (name, ratio)


def test_single_run_protocol_shape(declaration):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "wide_tree_walk", "--seed", "3",
         "--seconds", "0.2", "--trace", "0", "--quick"],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric
                                      in declaration["end_to_end"]}
    for metric in declaration["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def _process_group_members(group):
    """``pid state command`` of every process (zombies too) in ``group``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # ended while we were looking
        command, _, rest = stat.rpartition(")")
        fields = rest.split()  # state ppid pgrp ...
        if int(fields[2]) == group:
            members.append(f"{entry} {fields[0]} {command.partition('(')[2]}")
    return members


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fleet_run_leaves_no_process_behind(trace):
    # workers, and the resource tracker multiprocessing.shared_memory
    # starts, stay in the run's process group: give it one of its own
    run = subprocess.Popen(
        [sys.executable, RUN, "--workload", "fleet_2w", "--seed", "3",
         "--seconds", "0.2", "--trace", trace, "--quick"],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    output, _ = run.communicate(timeout=120)
    assert run.returncode == 0, output
    assert _process_group_members(run.pid) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verifs_dfs_por",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


@pytest.mark.parametrize("name", ["verifs_dfs_por", "ext_remount_walk",
                                  "bug_hunt"])
def test_tracing_leaves_no_wrapper_behind(name, tmp_path):
    workload = make_workloads(quick=True)[name]
    tracer, counters = Tracer(), TraceCounters()
    sample = bench_run.run_round(workload, 7000, str(tmp_path),
                                 trace=(tracer, counters))
    assert tracer.total("mc.explorer.run", "calls") >= 1
    assert sample.outcome.operations > 0
    assert _traced_classes() == []


def test_wrappers_come_out_when_the_round_raises(tmp_path):
    workload = make_workloads(quick=True)["verifs_dfs_por"]

    def explode(harness, seed, tracer):
        assert _traced_classes() != []
        raise RuntimeError("boom")

    workload.run = explode
    with pytest.raises(RuntimeError):
        bench_run.run_round(workload, 7000, str(tmp_path),
                            trace=(Tracer(), TraceCounters()))
    assert _traced_classes() == []


def test_outside_in_boundaries_agree_with_the_programs_profiler(tmp_path):
    """A ``profile=True`` run of verifs_dfs_por, traced at the same time:
    the ``mc.perf`` buckets and the outside-in boundaries time the same
    intervals, so they must agree within 20 %."""
    from dataclasses import replace

    workload = make_workloads(quick=False)["verifs_dfs_por"]
    workload.spec = replace(workload.spec, profile=True)
    workload.max_depth = 4
    tracer, counters = Tracer(), TraceCounters()
    mcfs, table = workload.setup(7000, str(tmp_path), True)
    workload.install(tracer, counters, (mcfs, table))
    try:
        result = mcfs.run_dfs(max_depth=4, por=True)
    finally:
        tracer.uninstall()
    seconds = result.cost_profile.seconds
    inside_abstraction = (seconds["abstraction_syscall"]
                          + seconds["abstraction_hash"])
    outside_abstraction = tracer.total("core.engine.abstract_state", "busy")
    assert tracer.total("core.abstraction.digests", "busy") \
        <= outside_abstraction
    assert outside_abstraction == pytest.approx(inside_abstraction, rel=0.2)
    outside_snapshots = (tracer.total("core.engine.checkpoint", "busy")
                         + tracer.total("core.engine.restore", "busy"))
    assert outside_snapshots == pytest.approx(seconds["snapshot_restore"],
                                              rel=0.2)


def _row(values):
    import statistics
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": quartiles[0],
            "q3": quartiles[2], "values": values}


@pytest.mark.parametrize("parent, change, better, verdict", [
    ([10.0, 10.1, 9.9], [10.2, 10.1, 10.0], "lower", "unchanged"),
    ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "lower", "regressed"),
    ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "lower", "improved"),
    ([100.0, 101.0, 99.0], [80.0, 81.0, 79.0], "higher", "regressed"),
    # spread wider than the bound and the runs interleave: cannot say
    ([10.0, 14.0, 8.0], [11.0, 15.0, 9.0], "lower", "unresolved"),
    # just as wide, but every run of the change beats every parent run
    ([10.0, 14.0, 8.0], [5.0, 7.0, 4.0], "lower", "improved"),
])
def test_compare_verdicts(parent, change, better, verdict):
    assert compare.judge(_row(parent), _row(change), better, 0.1)[1] \
        == verdict
