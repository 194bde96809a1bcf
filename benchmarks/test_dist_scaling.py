"""Distributed-fleet scaling: merged states/second at 1, 2, and 4 workers.

The paper positions swarm/parallel exploration as the answer to state
spaces a single checker cannot cover (sections 2 and 7).  ``repro.dist``
runs that fleet for real (multiprocessing workers, a shared visited-
state service, work stealing); this benchmark measures how throughput
scales with fleet size and checks the property everything else rests on
-- that the *merged result does not change* with the fleet size.

The headline number is **wall states/second with its cost profile**:
real merged-state throughput, decomposed into abstraction-walk /
fingerprint / ship / snapshot-restore buckets (:mod:`repro.mc.perf`),
so a rate change is attributable to a specific cost.  Wall-clock
*scaling* assertions are gated on ``os.cpu_count()``: on a single-CPU
container 4 workers time-slice one core and wall parallelism is
physically impossible, so there the guards check the deterministic
modeled clock instead.

A second experiment measures what the campaign *server* adds on top: the
same spec run once directly and once submitted through a live daemon
(Unix socket, JSON-lines protocol, streamed events), with the overhead
recorded to ``BENCH_server.json``.

Emits ``BENCH_dist.json`` and ``BENCH_server.json`` at the repo root.
"""

import json
import os
import threading
from pathlib import Path

from conftest import record_result
from repro.dist import CheckSpec, DistributedChecker
from repro.dist import realtime
from repro.dist.coordinator import DistResult
from repro.mc.perf import CostProfile
from repro.server import ReproClient, ReproServer, EngineConfig

SPEC = CheckSpec(
    filesystems=("verifs1", "verifs2"),
    units=8,
    base_seed=7,
    unit_operations=200,
    max_depth=10,
    profile=True,
)

FLEETS = (1, 2, 4)


def test_dist_scaling(benchmark):
    def measure(rounds=5):
        # best-of-N is the standard defence against scheduler noise on a
        # shared box: the fastest round is the closest estimate of the
        # true cost (every run does identical deterministic work).
        # Fleet-size-major order: on burstable boxes the earliest rounds
        # are the fastest, so the headline single-lane rows run first.
        return {workers: max(
            (DistributedChecker(SPEC, workers=workers).run()
             for _ in range(rounds)),
            key=lambda dist: dist.wall_states_per_second)
            for workers in FLEETS}

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    solo = results[1]

    rows = []
    for workers, dist in sorted(results.items()):
        profile = (CostProfile.from_dict(dist.cost_profile)
                   if dist.cost_profile else CostProfile())
        rows.append({
            "workers": workers,
            "units": len(dist.unit_results),
            "operations": dist.total_operations,
            "visited_states": dist.visited_states,
            "visited_fingerprint": dist.table.visited_fingerprint(),
            "wall_time": dist.wall_time,
            "wall_states_per_second": dist.wall_states_per_second,
            "cost_per_state_us": profile.per_state_microseconds(),
            "cost_profile": dist.cost_profile,
            "modeled_parallel_time": dist.modeled_parallel_time,
            "sequential_sim_time": dist.sequential_sim_time,
            "modeled_states_per_second": dist.states_per_second,
            "modeled_speedup": dist.speedup,
            "stolen_units": dist.stolen_units,
            "recovered_units": dist.recovered_units,
            "cross_worker_duplicates": dist.cross_worker_duplicates,
        })
        record_result(
            "distributed scaling (verifs1 vs verifs2, 8 units)",
            f"{workers} worker(s): "
            f"{dist.visited_states:4d} merged states "
            f"in {dist.wall_time:5.2f}s wall "
            f"= {dist.wall_states_per_second:7.1f} states/s "
            f"[{profile.describe()}] "
            f"({dist.speedup:4.2f}x modeled, {dist.stolen_units} stolen)",
        )

    out_path = Path(__file__).resolve().parent.parent / "BENCH_dist.json"
    out_path.write_text(json.dumps({
        "experiment": "distributed scaling",
        "headline_metric": "wall_states_per_second",
        "available_cores": os.cpu_count(),
        "spec": {
            "filesystems": list(SPEC.filesystems),
            "units": SPEC.units,
            "unit_operations": SPEC.unit_operations,
            "base_seed": SPEC.base_seed,
            "max_depth": SPEC.max_depth,
            "state_store": SPEC.state_store,
        },
        "results": rows,
    }, indent=2))

    # the merge is fleet-invariant: same union (byte-identical visited
    # fingerprints), same work, same findings -- for any worker count
    solo_fingerprint = solo.table.visited_fingerprint()
    for dist in results.values():
        assert dist.visited_states == solo.visited_states
        assert dist.total_operations == solo.total_operations
        assert dist.discrepancy_signature() == solo.discrepancy_signature()
        assert dist.table.visited_fingerprint() == solo_fingerprint
    # modeled throughput scales regardless of the host: 4 workers must
    # clear 1.5x the single-lane modeled rate
    assert results[4].states_per_second >= 1.5 * solo.states_per_second
    assert results[2].states_per_second > solo.states_per_second
    # wall-clock scaling needs real cores: only assert it where the OS
    # actually offers 4 (a 1-CPU container time-slices the fleet)
    cores = os.cpu_count() or 1
    if cores >= 4:
        assert (results[4].wall_states_per_second
                >= 1.5 * solo.wall_states_per_second)


def test_server_submission_overhead(benchmark, tmp_path):
    """Direct run vs the same campaign through a live daemon.

    The daemon adds queueing, JSON framing, event streaming, and spool
    writes around the identical unit work -- this measures that tax and
    asserts the served result is byte-equivalent to the direct one.
    """
    def measure():
        start = realtime.now()
        direct = DistributedChecker(SPEC, workers=1).run()
        direct_wall = realtime.now() - start

        server = ReproServer(
            socket_path=str(tmp_path / "bench.sock"),
            config=EngineConfig(slots=1,
                                spool_dir=str(tmp_path / "spool")))
        server.start()  # bind before the loop thread: no connect race
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        start = realtime.now()
        with ReproClient(socket_path=server.socket_path,
                         timeout=300.0) as client:
            job = client.submit(SPEC)
            events = list(client.watch(job["job_id"]))
            served = DistResult.from_dict(client.result(job["job_id"]))
            client.shutdown()
        served_wall = realtime.now() - start
        thread.join(timeout=30)
        return direct, direct_wall, served, served_wall, len(events)

    direct, direct_wall, served, served_wall, event_count = \
        benchmark.pedantic(measure, rounds=1, iterations=1)

    overhead = served_wall - direct_wall
    relative = served_wall / direct_wall if direct_wall > 0 else 0.0
    record_result(
        "server submission overhead (verifs1 vs verifs2, 8 units)",
        f"direct {direct_wall:5.2f}s, served {served_wall:5.2f}s "
        f"({relative:4.2f}x, +{overhead:5.2f}s, "
        f"{event_count} streamed events)",
    )

    out_path = Path(__file__).resolve().parent.parent / "BENCH_server.json"
    out_path.write_text(json.dumps({
        "experiment": "server submission overhead",
        "headline_metric": "wall_time",
        "spec": {
            "filesystems": list(SPEC.filesystems),
            "units": SPEC.units,
            "unit_operations": SPEC.unit_operations,
            "base_seed": SPEC.base_seed,
            "max_depth": SPEC.max_depth,
        },
        "results": {
            "direct_wall_time": direct_wall,
            "served_wall_time": served_wall,
            "overhead_seconds": overhead,
            "overhead_relative": relative,
            "streamed_events": event_count,
            "visited_states": served.visited_states,
        },
    }, indent=2))

    # the daemon must not change the campaign's outcome, only wrap it
    assert served.visited_states == direct.visited_states
    assert served.total_operations == direct.total_operations
    assert served.discrepancy_signature() == direct.discrepancy_signature()
    assert event_count > 0
