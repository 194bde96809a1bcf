"""Counterexample minimization: prefix-cached ddmin vs the naive baseline.

Spin's trail files replay a counterexample but leave shrinking it to the
developer.  The trail subsystem automates that with ddmin over the
captured schedule, re-executing only suffixes from copy-on-write prefix
checkpoints.  The baseline it must beat is the obvious loop -- delete
one event at a time and re-run the whole candidate from scratch -- whose
cost is quadratic in the trail length.

Three experiments:

1. **Head-to-head** -- the same mid-size captured trail through both
   minimizers.  Both must land on the same 1-minimal operation count;
   ddmin must get there having *executed* far fewer schedule events.
2. **Long-log convergence** -- a 1000+-operation ``run_random`` log
   (the acceptance-criteria shape) through ddmin alone: the baseline is
   too slow to run here, which is the point.  Minimized length must be
   <= 10 operations.
3. **DFS trail** -- the depth-4 ``truncate-stale-data`` hunt (the
   ``repro bugdemo`` shape): ~3 200 events of checkpoint/restore
   episodes whose live path is three operations.  The minimizer must
   project it (never executing the full schedule), stay unpolluted, and
   execute fewer events than the schedule is long.

Emits ``BENCH_trail.json`` at the repo root.
"""

import json
from pathlib import Path

from conftest import record_result
from repro.cli import BUG_PAIRS, hunt_spec
from repro.dist.spec import CheckSpec
from repro.trail import Trail, minimize_trail, minimize_trail_naive, replay_trail

_json_payload = {}


def _capture(tmp_path, state_check_every, max_operations):
    spec = CheckSpec(filesystems=("verifs1", "verifs2"),
                     verifs_bugs=("write-hole-stale",),
                     pool="data-heavy",
                     state_check_every=state_check_every)
    mcfs = spec.build_mcfs()
    mcfs.options.trail_dir = str(tmp_path)
    result = mcfs.run_random(seed=1, max_operations=max_operations,
                             max_depth=12, backtrack_probability=0.25)
    assert result.found_discrepancy and result.trail_path
    return Trail.load(result.trail_path)


def _row(kind, res):
    return {
        "minimizer": kind,
        "original_operations": res.original_operations,
        "minimized_operations": res.minimized_operations,
        "original_events": res.original_events,
        "minimized_events": res.minimized_events,
        "probes": res.probes,
        "events_executed": res.events_executed,
        **res.stats(),
    }


def test_ddmin_vs_naive(benchmark, tmp_path):
    trail = _capture(tmp_path, state_check_every=25, max_operations=800)

    def measure():
        return minimize_trail(trail), minimize_trail_naive(trail)

    ddmin, naive = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = naive.events_executed / max(1, ddmin.events_executed)

    for kind, res in (("ddmin+prefix-cache", ddmin), ("naive", naive)):
        record_result(
            "Trail minimization: ddmin vs one-event-at-a-time",
            f"{kind:20s} {res.original_operations:4d} -> "
            f"{res.minimized_operations:2d} ops | probes {res.probes:5d} | "
            f"events executed {res.events_executed:7d}",
        )
    record_result(
        "Trail minimization: ddmin vs one-event-at-a-time",
        f"ddmin executed {speedup:.1f}x fewer events than the baseline",
    )
    _json_payload["head_to_head"] = {
        "ddmin": _row("ddmin", ddmin),
        "naive": _row("naive", naive),
        "event_execution_speedup": speedup,
    }

    # same 1-minimal answer, and it still reproduces on a fresh harness
    assert ddmin.minimized_operations == naive.minimized_operations
    assert replay_trail(ddmin.trail).confirmed
    # the headline: prefix-cached ddmin does strictly less re-execution
    assert ddmin.events_executed < naive.events_executed, (
        f"ddmin executed {ddmin.events_executed} events vs the baseline's "
        f"{naive.events_executed}")


def test_long_log_convergence(benchmark, tmp_path):
    trail = _capture(tmp_path, state_check_every=1000, max_operations=5000)
    assert trail.operations >= 1000, "log too short for the acceptance shape"

    res = benchmark.pedantic(lambda: minimize_trail(trail),
                             rounds=1, iterations=1)

    record_result(
        "Trail minimization: ddmin vs one-event-at-a-time",
        f"{'ddmin, 1000+-op log':20s} {res.original_operations:4d} -> "
        f"{res.minimized_operations:2d} ops | probes {res.probes:5d} | "
        f"events executed {res.events_executed:7d}",
    )
    _json_payload["long_log"] = _row("ddmin", res)

    assert res.minimized_operations <= 10
    assert not res.exhausted
    assert replay_trail(res.trail).confirmed


def test_dfs_trail_projection(benchmark, tmp_path):
    bug = "truncate-stale-data"
    reference, buggy, depth, _profile = BUG_PAIRS[bug]
    mcfs = hunt_spec(bug).build_mcfs()
    mcfs.options.trail_dir = str(tmp_path)
    result = mcfs.run_dfs(max_depth=depth, max_operations=400_000)
    assert result.found_discrepancy and result.trail_path
    trail = Trail.load(result.trail_path)

    res = benchmark.pedantic(lambda: minimize_trail(trail),
                             rounds=1, iterations=1)

    record_result(
        "Trail minimization: ddmin vs one-event-at-a-time",
        f"{'ddmin, depth-4 DFS':20s} {res.original_operations:4d} -> "
        f"{res.minimized_operations:2d} ops | probes {res.probes:5d} | "
        f"events executed {res.events_executed:7d} "
        f"(schedule: {res.original_events} events)",
    )
    _json_payload["dfs_trail"] = {
        "bug": bug, "filesystems": [reference, buggy], "max_depth": depth,
        **_row("ddmin", res),
    }

    assert res.projected
    assert res.polluted_at is None
    assert res.events_executed < res.original_events, (
        f"minimizing executed {res.events_executed} events, more than the "
        f"{res.original_events}-event schedule itself")
    assert res.minimized_operations <= 10
    assert replay_trail(res.trail).confirmed

    out_path = Path(__file__).resolve().parent.parent / "BENCH_trail.json"
    out_path.write_text(json.dumps({
        "experiment": "counterexample trail minimization",
        "config": {
            "bug": "write-hole-stale",
            "filesystems": ["verifs1", "verifs2"],
            "pool": "data-heavy",
            "seed": 1,
        },
        **_json_payload,
    }, indent=2))
