#!/usr/bin/env python3
"""One outside-in benchmark for the checker.

Two ways to call it (both from any directory; paths resolve from here):

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in *this* process -- the protocol
    ``BENCHMARK.json`` declares.  Rounds (one complete check each, built
    from seeds ``N*1000 + round``) repeat until ``S`` seconds have been
    measured.  The last stdout line is one JSON object: ``correct``,
    ``attempted``, ``failed`` (verdict checks) and ``metrics`` -- the
    end-to-end metrics with ``--trace 0``, the per-layer metrics with
    ``--trace 1`` (each round then runs twice, untraced then traced).

``python3 bench/run.py [--seed N] [--out DIR] [--quick]``
    The whole battery: every workload as a fresh child process, one at
    a time, 3 untraced repeats interleaved across workloads and
    alternating direction, then one traced run each.  Prints every
    metric by name with its unit and writes ``DIR/results.json`` plus
    one ``DIR/<workload>.trace.json`` per workload (``compare.py``
    reads two such results files).

Exit status is non-zero when any verdict check failed.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import collections
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
DEFAULT_OUT = os.path.join(ROOT, ".bench_out")

#: seeds whose rounds ``pins.json`` pins exactly (11 is the held-out one)
PINNED_SEEDS = (7, 11)
#: rounds pinned per seed (more than fit into any measuring window)
PINNED_ROUNDS = 16
SUITE_REPEATS = 3


def load_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_pins():
    with open(os.path.join(BENCH_DIR, "pins.json")) as handle:
        return json.load(handle)


def round_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0  # Linux reports KiB


# ------------------------------------------------------------ one workload --
#: timings and outcome (a ``workloads.Round``) of one round
Sample = collections.namedtuple("Sample", "setup_s wall_s cpu_s outcome")


def run_round(workload, seed, workdir, trace=None):
    """Set one round up, run it (under ``trace`` if given), tear it down.

    ``trace`` is ``(tracer, counters)``; wrappers go in after set-up and
    come out before tear-down, whatever happens in between.
    """
    gc.collect()  # the previous round's harness must not bill this one
    start = time.perf_counter()
    harness = workload.setup(seed, workdir, trace is not None)
    ready = time.perf_counter()
    try:
        tracer = None
        if trace is not None:
            tracer, counters = trace
            workload.install(tracer, counters, harness)
        try:
            cpu_before = _cpu_seconds()
            began = time.perf_counter()
            outcome = workload.run(harness, seed, tracer)
            ended = time.perf_counter()
            cpu_after = _cpu_seconds()
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        workload.close(harness)
    return Sample(ready - start, ended - began, cpu_after - cpu_before,
                  outcome)


def quiet_quartile(values, better):
    """The quartile of per-round ``values`` on their ``better`` side.

    The shared host only ever *adds* time, in bursts of seconds: the
    rounds it left alone say what the program costs, the slow tail what
    the neighbours were doing.  A quartile (not the extreme) so that one
    lucky round of an easy seed does not set the figure.
    """
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=4, method="inclusive")
    return cuts[0] if better == "lower" else cuts[2]


class Checks:
    """Verdict checks: every one counts into attempted, misses into failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, label, passed, detail=""):
        self.attempted += 1
        if not passed:
            self.failures.append(f"{label}{': ' + detail if detail else ''}")

    def check_round(self, workload, expected, seed, outcome, pinned):
        tag = f"{workload.name}[seed {seed}]"
        self.check(f"{tag} verdict", outcome.verdict == expected["verdict"],
                   f"{outcome.verdict!r} != {expected['verdict']!r}")
        self.check(f"{tag} stop reason",
                   outcome.stopped == expected["stopped"],
                   f"{outcome.stopped!r} != {expected['stopped']!r}")
        for label, passed in outcome.checks:
            self.check(f"{tag} {label}", passed)
        if pinned is not None:
            self.check(f"{tag} pinned identity",
                       outcome.identity() == pinned,
                       f"{outcome.identity()} != {pinned}")


def measure_workload(name, seed, seconds, traced, quick=False, out=None,
                     repin=False):
    """Run rounds of ``name`` for ``seconds`` measured seconds.

    Returns ``(metrics, checks, notes)``; ``metrics`` holds the
    end-to-end values (untraced) or the per-layer values (traced).
    """
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    from layers import layer_metrics
    from tracer import Tracer
    from workloads import TraceCounters, make_workloads
    import_s = time.perf_counter() - _PROCESS_START

    workload = make_workloads(quick)[name]
    pins = load_pins()[name]
    pinned_rounds = pins["rounds"] if (
        workload.exact_pins and not quick and not repin) else {}
    notes = []
    if not quick and workload.exact_pins and seed not in PINNED_SEEDS:
        notes.append(f"seed {seed} is not pinned (pins cover "
                     f"{PINNED_SEEDS}): checking verdicts"
                     + (" and traced == untraced" if traced else "")
                     + " only")
    checks = Checks()
    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    tracer, counters = Tracer(), TraceCounters()
    plain, shadow = [], []  # untraced samples, their traced twins
    counts = {}
    try:
        measured = 0.0
        index = 0
        while True:
            sub_seed = round_seed(seed, index)
            # alternate which twin goes first, so neither always inherits
            # the other's warm allocator and caches
            if not traced:
                turns = (False,)
            else:
                turns = (False, True) if index % 2 == 0 else (True, False)
            for traced_turn in turns:
                if traced_turn:
                    tracer.begin_run(sub_seed, keep_spans=index == 0)
                    sample = run_round(workload, sub_seed, workdir,
                                       trace=(tracer, counters))
                    shadow.append(sample)
                    for key, value in sample.outcome.counts.items():
                        counts[key] = counts.get(key, 0) + value
                else:
                    sample = run_round(workload, sub_seed, workdir)
                    checks.check_round(workload, pins, sub_seed,
                                       sample.outcome,
                                       pinned_rounds.get(str(sub_seed)))
                    plain.append(sample)
                measured += sample.wall_s
            if traced:
                twin, sample = shadow[-1].outcome, plain[-1].outcome
                checks.check(
                    f"{name}[seed {sub_seed}] traced == untraced",
                    twin.identity() == sample.identity()
                    and twin.verdict == sample.verdict,
                    f"{twin.identity()} != {sample.identity()}")
            index += 1
            # stop where the window is fullest: half a round early or late
            if measured + 0.5 * measured / index >= seconds:
                break
            if repin and index >= PINNED_ROUNDS:
                break
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is using it

    if repin:
        return {str(round_seed(seed, index)): sample.outcome.identity()
                for index, sample in enumerate(plain)}, checks, notes

    if "reference_states" in pins:
        notes.append(f"unique states {plain[0].outcome.states} "
                     f"(reference {pins['reference_states']})")

    if not traced:
        rate_walls = [s.outcome.rate_wall_s if s.outcome.rate_wall_s
                      is not None else s.wall_s for s in plain]
        ops_per_s = quiet_quartile(
            [s.outcome.operations / wall
             for s, wall in zip(plain, rate_walls)], "higher")
        metrics = {
            "wall_s": quiet_quartile([s.wall_s for s in plain], "lower"),
            "ops_per_s": ops_per_s,
            # how many operations reach a new state is the seeds' doing,
            # not the machine's: take that share over the whole window
            "states_per_s": ops_per_s
            * sum(s.outcome.states for s in plain)
            / sum(s.outcome.operations for s in plain),
            "cpu_s": quiet_quartile([s.cpu_s for s in plain], "lower"),
            "peak_rss_mb": _peak_rss_mib(),
            "setup_s": import_s + statistics.median(s.setup_s
                                                    for s in plain),
        }
        notes.append(f"{len(plain)} round(s), "
                     f"{sum(s.wall_s for s in plain):.2f} s measured; "
                     "wall_s/cpu_s/operations/states per round: "
                     + " ".join(f"{s.wall_s:.3f}/{s.cpu_s:.3f}/"
                                f"{s.outcome.operations}/{s.outcome.states}"
                                for s in plain))
        return metrics, checks, notes

    traced_wall = sum(s.wall_s for s in shadow)
    metrics = layer_metrics(
        tracer, counters, counts,
        rounds=len(shadow),
        operations=sum(s.outcome.operations for s in shadow),
        # round 0 alone, so the value repeats exactly for a given --seed
        # however many rounds the window held
        sim_ops_per_s=(shadow[0].outcome.operations
                       / shadow[0].outcome.sim_s),
        plain_wall_s=sum(s.wall_s for s in plain),
        traced_wall_s=traced_wall)
    layer_self = sum(tracer.layer_self().values())
    checks.check(
        f"{name} self-time accounting closes",
        abs(layer_self - tracer.top_level_busy())
        <= 1e-6 * max(traced_wall, 1e-9),
        f"sum of self {layer_self} != top-level busy "
        f"{tracer.top_level_busy()}")
    notes.append(f"{len(shadow)} traced round(s), overhead "
                 f"{metrics['trace.overhead_ratio']:.2f}x")
    if out is not None:
        os.makedirs(out, exist_ok=True)
        tracer.write(os.path.join(out, f"{name}.trace.json"), extra={
            "workload": name, "seed": seed, "traced_rounds": len(shadow),
            "traced_wall_s": traced_wall,
            "layer_self_s": tracer.layer_self(),
            "spans_kept_for_run": round_seed(seed, 0),
        })
    return metrics, checks, notes


def reap_children():
    """Stop every process this one started and wait until each has ended.

    ``fleet_2w`` forks workers (the coordinator joins them) and, through
    ``multiprocessing.shared_memory``, starts the interpreter's resource
    tracker, which by itself only ends *after* this process has: it would
    outlive the run.  Nothing may.
    """
    if "multiprocessing" not in sys.modules:
        return  # this workload never started a process
    import multiprocessing
    from multiprocessing import resource_tracker
    for process in multiprocessing.active_children():
        process.terminate()
        process.join(timeout=5)
        if process.is_alive():
            process.kill()
            process.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        # it reads its pipe until end-of-file: close our end, then wait
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


def single_run(args, declaration):
    """The ``BENCHMARK.json`` protocol: one workload, JSON on the last line."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes steer set/dict iteration order; pin them so a run's
        # inputs really are a function of --seed alone
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    try:
        return _single_run(args, declaration)
    finally:
        reap_children()


def _single_run(args, declaration):
    traced = bool(args.trace)
    if args.repin:
        rounds, checks, _notes = measure_workload(
            args.workload, args.seed, float("inf"), False, repin=True)
        print(json.dumps({"rounds": rounds, "failed": checks.failures}))
        return 1 if checks.failures else 0
    metrics, checks, notes = measure_workload(
        args.workload, args.seed, args.seconds, traced, quick=args.quick,
        out=args.out)
    declared = declaration["per_layer" if traced else "end_to_end"]
    if {entry["name"] for entry in declared} != set(metrics):
        raise SystemExit("bench: computed metrics do not match "
                         "BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {e['name'] for e in declared})}")
    for note in notes:
        print(f"# {note}")
    for failure in checks.failures:
        print(f"# FAILED {failure}")
    for entry in declared:
        print(f"{args.workload:18s} {entry['name']:38s} "
              f"{metrics[entry['name']]:16.6f} {entry['unit']}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in declared},
    }))
    return 1 if checks.failures else 0


# --------------------------------------------------------------- the suite --
def _child(workload, seed, seconds, trace, quick, out):
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if quick:
        command.append("--quick")
    if out is not None:
        command += ["--out", out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench: {workload} printed no result "
                         f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    result["log"] = [line for line in lines[:-1] if line.startswith("#")]
    return result


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _commit():
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def suite(args, declaration):
    """Every workload: interleaved untraced repeats, then one traced run."""
    names = [entry["name"] for entry in declaration["workloads"]]
    repeats = 1 if args.quick else SUITE_REPEATS
    seconds = args.seconds if args.seconds is not None else (
        0.5 if args.quick else declaration["run_seconds"])
    out = os.path.abspath(args.out or DEFAULT_OUT)
    os.makedirs(out, exist_ok=True)
    nproc = os.cpu_count() or 1
    load_start = os.getloadavg()[0]
    bounds = {entry["name"]: entry for entry in declaration["end_to_end"]}

    tally = {"failed": 0, "attempted": 0}

    def child(name, traced, tag):
        result = _child(name, args.seed, seconds, traced, args.quick,
                        out if traced else None)
        tally["failed"] += result["failed"]
        tally["attempted"] += result["attempted"]
        for line in result["log"]:
            print(f"[{name} {tag}] {line}", flush=True)
        return result

    runs = {name: [] for name in names}
    for repeat in range(repeats):
        # alternate direction so no workload always runs after the same one
        for name in (names if repeat % 2 == 0 else reversed(names)):
            runs[name].append(child(name, False, f"#{repeat}"))
    traces = {name: child(name, True, "traced") for name in names}
    load_end = os.getloadavg()[0]
    failed, attempted = tally["failed"], tally["attempted"]

    noisy = []
    if max(load_start, load_end) > nproc:
        noisy.append(f"load average {max(load_start, load_end):.2f} "
                     f"exceeds nproc {nproc}")
    workloads = {}
    for name in names:
        end_to_end = {}
        for metric, entry in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs[name]]
            low, _, high = _quartiles(values)
            median = statistics.median(values)
            spread = (high - low) / median if median else 0.0
            end_to_end[metric] = {
                "unit": entry["unit"], "median": median, "q1": low,
                "q3": high, "n": len(values), "values": values,
            }
            if entry["unit"] == "s" and metric != "setup_s" \
                    and spread > entry["bound"]:
                noisy.append(f"{name}.{metric}: interquartile range "
                             f"{spread:.1%} exceeds its bound "
                             f"{entry['bound']:.0%}")
        workloads[name] = {
            "end_to_end": end_to_end,
            "per_layer": {metric: value["value"] for metric, value
                          in traces[name]["metrics"].items()},
            "trace_file": f"{name}.trace.json",
        }
    results = {
        "format": "bench-results/1",
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": nproc,
        "seed": args.seed,
        "run_seconds": seconds,
        "repeats": repeats,
        "quick": args.quick,
        "loadavg_1m": {"start": load_start, "end": load_end},
        "noisy": noisy,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "attempted": attempted,
        "failed": failed,
        "workloads": workloads,
    }
    with open(os.path.join(out, "results.json"), "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")

    for name in names:
        for metric, row in workloads[name]["end_to_end"].items():
            print(f"{name:18s} {metric:38s} {row['median']:16.6f} "
                  f"{row['unit']:8s} q1 {row['q1']:.6f} q3 {row['q3']:.6f} "
                  f"n {row['n']}")
        units = {entry["name"]: entry["unit"]
                 for entry in declaration["per_layer"]}
        for metric, value in workloads[name]["per_layer"].items():
            print(f"{name:18s} {metric:38s} {value:16.6f} {units[metric]}")
    print(f"{'all':18s} {'failed_ratio':38s} "
          f"{results['failed_ratio']:16.6f} ratio    "
          f"({failed} of {attempted} checks)")
    for warning in noisy:
        print(f"WARNING noisy: {warning}")
    print(f"results: {os.path.join(out, 'results.json')}")
    return 1 if failed else 0


def repin(declaration):
    """Rewrite ``pins.json``'s exact round identities (seeds 7 and 11)."""
    pins = load_pins()
    for entry in declaration["workloads"]:
        name = entry["name"]
        if "rounds" not in pins[name]:
            continue  # verdict-only workload
        pins[name]["rounds"] = {}
        for seed in PINNED_SEEDS:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(seed), "--repin"]
            done = subprocess.run(
                command, env=dict(os.environ, PYTHONHASHSEED="0"),
                stdout=subprocess.PIPE, text=True, timeout=900)
            document = json.loads(done.stdout.strip().splitlines()[-1])
            if document["failed"]:
                raise SystemExit(f"bench: cannot pin {name}: "
                                 f"{document['failed']}")
            pins[name]["rounds"].update(document["rounds"])
            print(f"pinned {name} seed {seed}: "
                  f"{len(document['rounds'])} rounds", flush=True)
    with open(os.path.join(BENCH_DIR, "pins.json"), "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in "
                        "this process (the BENCHMARK.json protocol)")
    parser.add_argument("--seed", type=int, default=7,
                        help="base seed of every workload (default 7)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one run measures (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--out", default=None, help="directory for "
                        "results.json and <workload>.trace.json")
    parser.add_argument("--quick", action="store_true",
                        help="budgets / 20, one repeat, pins skipped")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite pins.json from this tree's behaviour")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: the program under test is missing: no {SRC}/repro",
              file=sys.stderr)
        return 2
    declaration = load_declaration()
    if args.workload is not None:
        names = [entry["name"] for entry in declaration["workloads"]]
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(names)}")
        if args.seconds is None:
            args.seconds = float(declaration["run_seconds"])
        return single_run(args, declaration)
    if args.repin:
        return repin(declaration)
    return suite(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
