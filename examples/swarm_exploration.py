#!/usr/bin/env python3
"""Swarm verification: diversified explorers covering more state space.

The paper plans to "use Spin's swarm verification to explore larger
state spaces in parallel" (section 7).  Here the swarm is a
:class:`~repro.dist.DistributedChecker` campaign: a ``CheckSpec`` names
the file systems and how many seed- and depth-diversified members
(work units) to run, a fleet of worker processes runs them, and one
shared visited-state service holds the union.  The example shows:

* union coverage exceeding any single member's coverage;
* modelled parallel time = the busiest lane, far below the sequential sum;
* members finding an injected VeriFS2 bug (each stops where it finds it;
  the others carry on, so the result lists every finder).

Run:  python examples/swarm_exploration.py
"""

from repro.dist import CheckSpec, DistributedChecker


def main() -> None:
    print("Coverage swarm: 4 diversified members over clean VeriFS1 vs VeriFS2")
    spec = CheckSpec(filesystems=("verifs1", "verifs2"), units=4,
                     max_depth=8, unit_operations=400)
    result = DistributedChecker(spec, workers=2).run()
    for unit in result.unit_results:
        print(f"  member seed={unit.seed:6d}: {unit.operations:4d} ops, "
              f"{unit.unique_states:4d} states, "
              f"{unit.sim_time:6.3f}s simulated ({unit.worker_id})")
    print(f"  union coverage : {result.visited_states} states")
    print(f"  best member    : "
          f"{max(unit.unique_states for unit in result.unit_results)} states")
    print(f"  parallel time  : {result.modeled_parallel_time:.3f}s on "
          f"{result.workers} lanes (sequential would be "
          f"{result.sequential_sim_time:.3f}s)")
    assert not result.found_discrepancy

    print("\nBug-hunting swarm: 8 members against a VeriFS2 with "
          "write-hole-stale injected")
    hunt = CheckSpec(filesystems=("verifs1", "verifs2"), units=8,
                     max_depth=12, unit_operations=1_500,
                     verifs_bugs=("write-hole-stale",))
    # workers=0 is the same campaign with every member run in this process
    result = DistributedChecker(hunt, workers=0).run()
    finders = [unit for unit in result.unit_results
               if unit.violation is not None]
    for unit in finders:
        print(f"  member seed={unit.seed} found the bug after "
              f"{unit.operations} operations")
    print(f"  {len(finders)} of {len(result.unit_results)} members found it")
    assert finders, "no member found the bug within its budget"
    print(f"  first report   : {result.discrepancies[0].summary}")


if __name__ == "__main__":
    main()
