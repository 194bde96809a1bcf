"""Per-layer metrics: from tracer aggregates and public counters to names.

Layers are ``repro``'s modules.  Time metrics are *self* time (a
boundary's duration minus the wrapped calls made inside it) and, like
the counts, are reported **per traced round** (totals over the traced
rounds divided by their number) so that runs which fit a different
number of rounds into the window stay comparable.  Ratios are taken
over the totals.
"""

from __future__ import annotations

from typing import Dict

from tracer import Tracer


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, counters, counts: Dict[str, float],
                  rounds: int, operations: int, sim_ops_per_s: float,
                  plain_wall_s: float,
                  traced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric ``BENCHMARK.json`` declares, by name.

    ``counters`` is the ``workloads.TraceCounters`` the wrappers fed;
    ``counts`` are the traced rounds' summed public counters (see
    ``workloads.Round.counts``) and ``operations`` their summed
    operations; ``sim_ops_per_s`` is the first round's operations per
    simulated second; the two walls are the summed
    round walls of the untraced and traced halves of each pair.
    """
    rounds = max(1, rounds)

    def per_round(value: float) -> float:
        return value / rounds

    def self_s(boundary: str) -> float:
        # across the process boundary the program's own profiler buckets
        # stand in for spans (fleet_2w); they never coexist with a span
        return per_round(tracer.total(boundary)
                         + counts.get(f"_profile.{boundary}_s", 0.0))

    def calls(boundary: str) -> float:
        return per_round(tracer.total(boundary, "calls"))

    def count(name: str) -> float:
        return per_round(counts.get(name, 0))

    metrics: Dict[str, float] = {}
    # -- mc.explorer ----------------------------------------------------
    metrics["mc.explorer.self_s"] = self_s("mc.explorer.run")
    for name in ("transitions", "unique_states", "revisited_states",
                 "checkpoints", "restores", "por_pruned"):
        metrics[f"mc.explorer.{name}"] = count(f"mc.explorer.{name}")
    metrics["mc.explorer.duplicate_hit_ratio"] = _ratio(
        counts.get("mc.statestore.duplicate_hits", 0),
        counts.get("mc.statestore.visits", 0))
    # -- core.engine ----------------------------------------------------
    metrics["core.engine.apply_s"] = self_s("core.engine.apply")
    metrics["core.engine.apply_us_p50"] = tracer.percentile_us(
        "core.engine.apply", 0.50)
    metrics["core.engine.apply_us_p99"] = tracer.percentile_us(
        "core.engine.apply", 0.99)
    metrics["core.engine.compare_s"] = self_s("core.engine.abstract_state")
    metrics["core.engine.checkpoint_s"] = self_s("core.engine.checkpoint")
    metrics["core.engine.restore_s"] = self_s("core.engine.restore")
    metrics["core.engine.self_s"] = sum(
        metrics[f"core.engine.{part}_s"]
        for part in ("apply", "compare", "checkpoint", "restore"))
    # -- core.ops -------------------------------------------------------
    metrics["core.ops.execute_s"] = self_s("core.ops.execute")
    metrics["core.ops.execute_calls"] = calls("core.ops.execute")
    metrics["core.ops.errno_ratio"] = _ratio(
        counters.errnos, tracer.total("core.ops.execute", "calls"))
    # -- mc.strategies --------------------------------------------------
    for part in ("checkpoint", "restore", "after_operation"):
        metrics[f"mc.strategies.{part}_s"] = self_s(f"mc.strategies.{part}")
    metrics["mc.strategies.remounts"] = count("mc.strategies.remounts")
    # -- core.abstraction -----------------------------------------------
    metrics["core.abstraction.digests_s"] = self_s("core.abstraction.digests")
    metrics["core.abstraction.digests_us_p50"] = tracer.percentile_us(
        "core.abstraction.digests", 0.50)
    metrics["core.abstraction.digests_us_p99"] = tracer.percentile_us(
        "core.abstraction.digests", 0.99)
    metrics["core.abstraction.token_s"] = self_s("core.abstraction.token")
    metrics["core.abstraction.syscalls_per_digest"] = _ratio(
        tracer.under("kernel.syscall", "core.abstraction.digests")[0],
        tracer.total("core.abstraction.digests", "calls"))
    # -- kernel ---------------------------------------------------------
    metrics["kernel.syscall_s"] = self_s("kernel.syscall")
    metrics["kernel.syscalls"] = calls("kernel.syscall")
    metrics["kernel.mount_s"] = self_s("kernel.mount")
    metrics["kernel.mounts"] = calls("kernel.mount")
    metrics["kernel.dcache_hit_ratio"] = _ratio(
        counts.get("_dcache_hits", 0), counts.get("_dcache_lookups", 0))
    # -- fuse / verifs --------------------------------------------------
    metrics["fuse.roundtrip_s"] = self_s("fuse.roundtrip")
    metrics["fuse.roundtrips"] = calls("fuse.roundtrip")
    metrics["fuse.roundtrips_per_op"] = _ratio(
        tracer.total("fuse.roundtrip", "calls"), operations)
    metrics["verifs.handle_s"] = self_s("verifs.handle")
    metrics["verifs.handle_calls"] = calls("verifs.handle")
    # -- fs -------------------------------------------------------------
    metrics["fs.driver_s"] = self_s("fs.driver")
    metrics["fs.driver_calls"] = calls("fs.driver")
    metrics["fs.mount_scan_s"] = self_s("fs.mount_scan")
    hits = sum(stats.hits for stats in counters.cache_stats)
    misses = sum(stats.misses for stats in counters.cache_stats)
    metrics["fs.buffer_cache_hit_ratio"] = _ratio(hits, hits + misses)
    # -- storage --------------------------------------------------------
    metrics["storage.io_s"] = self_s("storage.io")
    metrics["storage.snapshot_s"] = self_s("storage.snapshot")
    metrics["storage.restore_s"] = self_s("storage.restore")
    for name in ("read_requests", "write_requests", "bytes_written",
                 "bytes_snapshotted", "bytes_restored"):
        metrics[f"storage.{name}"] = count(f"storage.{name}")
    metrics["storage.dedup_ratio"] = _ratio(
        counts.get("_logical_snapshot_bytes", 0),
        counts.get("storage.bytes_snapshotted", 0))
    # -- mc.statestore --------------------------------------------------
    metrics["mc.statestore.visit_s"] = self_s("mc.statestore.visit")
    for name in ("visits", "inserts", "duplicate_hits", "stored_bytes",
                 "resizes"):
        metrics[f"mc.statestore.{name}"] = count(f"mc.statestore.{name}")
    # -- dist -----------------------------------------------------------
    metrics["dist.run_s"] = self_s("dist.run")
    for name in ("units", "stolen_units", "recovered_units",
                 "cross_worker_duplicates"):
        metrics[f"dist.{name}"] = count(f"dist.{name}")
    metrics["dist.ship_us_per_state"] = 1e6 * _ratio(
        counts.get("_ship_s", 0.0), counts.get("_profiled_states", 0))
    metrics["dist.worker_busy_ratio"] = _ratio(
        counts.get("_worker_busy_s", 0.0), counts.get("_lane_s", 0.0))
    metrics["dist.parallel_efficiency"] = _ratio(
        counts.get("_unit_wall_s", 0.0), counts.get("_lane_s", 0.0))
    # -- server ---------------------------------------------------------
    for name in ("submit_to_first_event_s", "events", "overhead_s"):
        metrics[f"server.{name}"] = count(f"server.{name}")
    # -- trail ----------------------------------------------------------
    # the trail entry points own everything beneath them (a probe *is*
    # engine and kernel work), so they report whole durations, not self
    metrics["trail.replay_s"] = per_round(
        tracer.total("trail.replay", "busy"))
    metrics["trail.minimize_s"] = per_round(
        tracer.total("trail.minimize", "busy"))
    for name in ("probes", "events_executed", "minimized_ops", "hunt_s"):
        metrics[f"trail.{name}"] = count(f"trail.{name}")
    # -- clock ----------------------------------------------------------
    metrics["clock.sim_ops_per_s"] = sim_ops_per_s
    # -- trace (the harness itself) -------------------------------------
    metrics["trace.overhead_ratio"] = _ratio(traced_wall_s, plain_wall_s)
    metrics["trace.spans"] = per_round(tracer.spans_seen)
    # everything a top-level boundary did not cover: MCFS.run_* prologue
    # and epilogue, harness-side glue -- and, where the work happens in
    # another process or thread's daemon loop, that work (see README)
    metrics["trace.unattributed_ratio"] = max(
        0.0, 1.0 - _ratio(tracer.top_level_busy(), traced_wall_s))
    return metrics
