#!/usr/bin/env python3
"""Compare two ``results.json`` files written by ``run.py``.

``python3 bench/compare.py A/results.json B/results.json`` treats A as
the parent and B as the change.  For every (workload, end-to-end metric)
it applies the metric's bound from ``BENCHMARK.json`` to the medians and
prints one row with a verdict:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``improved``   -- B's median is better than A's by more than the bound;
* ``unchanged``  -- the medians are within the bound of each other;
* ``unresolved`` -- the run-to-run spread (interquartile range over the
  median, of either side) is wider than the bound, so none of the above
  can be said -- unless every run of one side beats every run of the
  other, which settles it whatever the spread.

``clock.sim_ops_per_s`` (simulated-clock throughput, the paper's
Figure 2 quantity) is deterministic for a given seed, so when both files
used the same seed it is gated too, at 1 %.  The per-layer deltas of the
two traced runs follow, for reading *where* a change landed; they carry
no verdict.

Exit status: 1 on any ``regressed`` row or a higher ``failed_ratio``.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: bound on the deterministic simulated-clock throughput (same seed only)
SIM_BOUND = 0.01
#: per-layer rows whose two sides differ by less than this are not shown
LAYER_NOISE = 0.02


def _worse_by(parent, change, better):
    """Relative change of the median in the *worse* direction."""
    if not parent:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def _spread(row):
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0


def _separated(parent, change, better):
    """True when every run of one side beats every run of the other."""
    if better == "lower":
        return max(change) < min(parent) or max(parent) < min(change)
    return min(change) > max(parent) or min(parent) > max(change)


def judge(parent, change, better, bound):
    worse = _worse_by(parent["median"], change["median"], better)
    noisy = max(_spread(parent), _spread(change)) > bound
    if noisy and not _separated(parent["values"], change["values"], better):
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "unchanged"


def compare(parent, change, declaration):
    rows, layer_rows, regressed = [], [], False
    for entry in declaration["workloads"]:
        name = entry["name"]
        before = parent["workloads"].get(name)
        after = change["workloads"].get(name)
        if before is None or after is None:
            continue
        for metric in declaration["end_to_end"]:
            worse, verdict = judge(
                before["end_to_end"][metric["name"]],
                after["end_to_end"][metric["name"]],
                metric["better"], metric["bound"])
            regressed |= verdict == "regressed"
            rows.append((name, metric["name"], metric["unit"],
                         before["end_to_end"][metric["name"]]["median"],
                         after["end_to_end"][metric["name"]]["median"],
                         worse, verdict))
        for metric in declaration["per_layer"]:
            old = before["per_layer"].get(metric["name"], 0.0)
            new = after["per_layer"].get(metric["name"], 0.0)
            if metric["name"] == "clock.sim_ops_per_s" \
                    and parent["seed"] == change["seed"] \
                    and parent["quick"] == change["quick"]:
                worse = _worse_by(old, new, metric["better"])
                verdict = ("regressed" if worse > SIM_BOUND else
                           "improved" if worse < -SIM_BOUND else "unchanged")
                regressed |= verdict == "regressed"
                rows.append((name, metric["name"], metric["unit"], old, new,
                             worse, verdict))
            if not old and not new:
                continue
            delta = (new - old) / abs(old) if old else float("inf")
            if abs(delta) >= LAYER_NOISE:
                layer_rows.append((name, metric["name"], metric["unit"],
                                   old, new, delta))
    return rows, layer_rows, regressed


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: compare.py PARENT/results.json CHANGE/results.json",
              file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        parent = json.load(handle)
    with open(argv[1]) as handle:
        change = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declaration = json.load(handle)

    rows, layer_rows, regressed = compare(parent, change, declaration)
    print(f"parent {parent['commit'][:12]} (seed {parent['seed']}, "
          f"n={parent['repeats']})  vs  change {change['commit'][:12]} "
          f"(seed {change['seed']}, n={change['repeats']})")
    print(f"{'workload':18s} {'metric':22s} {'parent':>14s} {'change':>14s} "
          f"{'worse by':>9s}  verdict")
    for name, metric, unit, old, new, worse, verdict in rows:
        print(f"{name:18s} {metric:22s} {old:14.6g} {new:14.6g} "
              f"{worse:+9.1%}  {verdict}  [{unit}]")
    print()
    print(f"per-layer deltas of the traced runs (|delta| >= "
          f"{LAYER_NOISE:.0%}; no verdict):")
    for name, metric, unit, old, new, delta in layer_rows:
        print(f"{name:18s} {metric:38s} {old:14.6g} {new:14.6g} "
              f"{delta:+9.1%}  [{unit}]")
    failed_higher = change["failed_ratio"] > parent["failed_ratio"]
    print()
    print(f"failed_ratio: parent {parent['failed_ratio']:.6f} "
          f"change {change['failed_ratio']:.6f}"
          + ("  HIGHER" if failed_higher else ""))
    for side, document in (("parent", parent), ("change", change)):
        for warning in document.get("noisy", []):
            print(f"note: {side} run was noisy: {warning}")
    return 1 if regressed or failed_higher else 0


if __name__ == "__main__":
    sys.exit(main())
