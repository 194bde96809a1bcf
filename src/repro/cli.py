"""Command-line interface: run MCFS checks without writing a script.

Examples::

    python -m repro list
    python -m repro check --fs ext2 --fs ext4 --mode dfs --depth 2
    python -m repro check --fs verifs1 --fs verifs2 --mode random --max-ops 2000
    python -m repro check --fs verifs1 --fs ext4 --fs verifs2 --voting
    python -m repro check --fs ext2 --fs ext4 --fsck-oracle --fsck-every 10
    python -m repro check --fs verifs1 --fs verifs2 --workers 4
    python -m repro swarm --fs verifs1 --fs verifs2 --workers 4
    python -m repro bugdemo --bug write-hole-stale
    python -m repro fsck image.ext2 other.img
    python -m repro analyze --strict

Counterexample trails (the ``spin -t`` loop)::

    python -m repro check --fs ext4 --fs verifs1 --mode random \
        --inject-bug truncate-stale-data --max-ops 5000 \
        --check-every 1000 --trail-dir trails/
    python -m repro replay trails/ext4-verifs1-random-seed0.trail.json
    python -m repro minimize trails/ext4-verifs1-random-seed0.trail.json
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.report import RunSummary
from repro.dist.spec import (
    FILESYSTEMS,
    KERNEL_FS,
    STRATEGIES,
    CheckSpec,
)
from repro.verifs import VeriFSBug
from repro.workload import PRESETS, PROFILE_NAMES

#: bug id -> (reference fs, buggy fs, DFS depth, input profile).  The
#: extent-boundary bug is the input-exploration poster child: the
#: default pool's largest write ends at byte 4000, inside the first
#: 4 KiB extent, so only the boundary profile can reach it.
BUG_PAIRS = {
    VeriFSBug.TRUNCATE_STALE_DATA.value: ("ext4", "verifs1", 4, "uniform"),
    VeriFSBug.MISSING_CACHE_INVALIDATION.value: ("ext4", "verifs1", 3,
                                                 "uniform"),
    VeriFSBug.WRITE_HOLE_STALE.value: ("verifs1", "verifs2", 3, "uniform"),
    VeriFSBug.SIZE_UPDATE_ON_CAPACITY_ONLY.value: ("verifs1", "verifs2", 3,
                                                   "uniform"),
    VeriFSBug.EXTENT_BOUNDARY_STALE.value: ("verifs1", "verifs2", 2,
                                            "boundary"),
}


def hunt_spec(bug: str) -> CheckSpec:
    """The campaign that finds ``bug`` (a ``BUG_PAIRS`` key) by DFS at
    that entry's depth: the buggy file system against its reference."""
    reference, buggy, _depth, profile = BUG_PAIRS[bug]
    return CheckSpec(filesystems=(reference, buggy),
                     include_extended=False,
                     verifs_bugs=(bug,),
                     input_profile=profile)


def cmd_list(_args) -> int:
    print("file systems:")
    for name in FILESYSTEMS:
        kind = "kernel" if name in KERNEL_FS else "FUSE (userspace)"
        print(f"  {name:10s} {kind}")
    print("strategies:")
    for name in STRATEGIES:
        print(f"  {name}")
    print("workload presets:")
    for name in sorted(PRESETS):
        print(f"  {name}")
    print("input profiles (--input-profile; flags: +boundary, +steer):")
    for name in PROFILE_NAMES:
        print(f"  {name}")
    print("  custom:op=weight,...")
    print("injectable VeriFS bugs (for bugdemo):")
    for bug in VeriFSBug:
        print(f"  {bug.value}")
    return 0


def _fsck_every_from_args(args) -> Optional[int]:
    if args.fsck_oracle or args.fsck_every is not None:
        return args.fsck_every if args.fsck_every is not None else 10
    return None


def _validate_fs_and_bugs(args) -> None:
    for name in args.fs:
        if name not in FILESYSTEMS:
            raise SystemExit(f"unknown file system {name!r}; see 'repro list'")
    for bug in getattr(args, "inject_bug", None) or ():
        try:
            VeriFSBug(bug)
        except ValueError:
            raise SystemExit(f"unknown bug {bug!r}; see 'repro list'")
    from repro.workload.profile import parse_profile

    for profile_spec in getattr(args, "input_profile", None) or ():
        try:
            parse_profile(profile_spec)
        except ValueError as error:
            # match the --state-store convention: bad spec exits 2
            print(f"error: {error}", file=sys.stderr)
            raise SystemExit(2)


def _spec_from_args(args) -> CheckSpec:
    """Build the picklable run description a worker fleet needs."""
    total_operations = args.max_ops or 1000
    profiles = tuple(getattr(args, "input_profile", None) or ())
    return CheckSpec(
        # one --input-profile applies fleet-wide; several rotate across
        # units (profile diversification on top of seed diversification)
        input_profile=profiles[0] if profiles else "uniform",
        profile_rotation=profiles if len(profiles) > 1 else (),
        filesystems=tuple(args.fs),
        pool=args.pool,
        strategy=args.strategy,
        equalize=args.equalize,
        voting=args.voting,
        fsck_every=_fsck_every_from_args(args),
        units=args.units,
        base_seed=args.seed,
        unit_operations=max(1, total_operations // args.units),
        max_depth=args.dist_depth,
        state_store=args.state_store,
        verifs_bugs=tuple(getattr(args, "inject_bug", None) or ()),
        state_check_every=max(1, getattr(args, "check_every", 1)),
        data_plane=getattr(args, "data_plane", "auto"),
        profile=bool(getattr(args, "profile", False)),
    )


def _minimize_into(trail_path: str, summary: RunSummary) -> None:
    """``--minimize``: shrink a freshly captured trail, save it next to
    the original, and fold the result into the run summary."""
    from repro.trail import Trail, minimize_trail

    result = minimize_trail(Trail.load(trail_path))
    stem = trail_path
    if stem.endswith(".trail.json"):
        stem = stem[:-len(".trail.json")]
    minimized_path = f"{stem}.min.trail.json"
    result.trail.save(minimized_path)
    summary.minimized_operations = result.minimized_operations
    print(result.describe())
    print(f"minimized trail: {minimized_path}")


def _run_campaign(args, state_file: Optional[str] = None,
                  per_worker: bool = False) -> int:
    """``repro check --workers N`` and ``repro swarm``: one campaign over
    a real fleet, one summary; ``swarm`` adds the per-worker table."""
    from repro.dist import DistributedChecker

    try:
        # a bad spec, or e.g. --data-plane shm forced on a platform (or
        # store) that cannot carry it: same contract either way
        dist = DistributedChecker(
            _spec_from_args(args), workers=args.workers,
            state_file=state_file, trail_dir=args.trail_dir).run()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(RunSummary.from_campaign(dist).render())
    for path in dist.trail_paths[1:]:
        print(f"trail      : {path}")
    print(f"workers    : {dist.workers} ({len(dist.unit_results)} units, "
          f"{dist.stolen_units} stolen, {dist.recovered_units} recovered, "
          f"{dist.inline_units} inline)")
    print(f"data plane : {dist.data_plane} "
          f"({dist.wall_states_per_second:.1f} states/s wall)")
    print(f"speedup    : {dist.speedup:.2f}x modeled "
          f"({dist.sequential_sim_time:.3f}s sequential -> "
          f"{dist.modeled_parallel_time:.3f}s parallel)")
    if per_worker:
        print(f"{'worker':8s} {'units':>5s} {'ops':>8s} {'sim s':>8s} "
              f"{'wall s':>8s} {'ops/s (wall)':>12s}")
        for summary in dist.worker_summaries:
            note = "" if summary.alive_at_end else "  [died]"
            print(f"{summary.worker_id:8s} {summary.units_completed:5d} "
                  f"{summary.operations:8d} {summary.sim_time:8.3f} "
                  f"{summary.wall_time:8.2f} "
                  f"{summary.wall_ops_per_second:12.1f}{note}")
        print(f"merged states : {dist.visited_states} "
              f"({dist.cross_worker_duplicates} cross-worker duplicates) "
              f"in {dist.wall_time:.2f}s wall")
    discrepancies = dist.discrepancies
    if discrepancies:
        print(f"\n{len(discrepancies)} discrepancy(ies) across units")
        for report in discrepancies:
            print("\n" + str(report))
        return 1
    print("\nno discrepancies found")
    return 0


def cmd_check(args) -> int:
    if len(args.fs) < 2:
        print("error: --fs must be given at least twice (MCFS compares "
              "file systems)", file=sys.stderr)
        return 2
    _validate_fs_and_bugs(args)
    try:
        from repro.mc.statestore import parse_store_spec

        parse_store_spec(args.state_store)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workers is not None:
        if args.mode == "dfs":
            print("error: --workers requires --mode random (distributed "
                  "campaigns partition seeded walks)", file=sys.stderr)
            return 2
        return _run_campaign(args, state_file=args.state_file)
    # the local path builds from the same spec a worker fleet would use,
    # so a trail captured here embeds everything a replay needs
    spec = _spec_from_args(args)
    mcfs = spec.build_mcfs()
    mcfs.options.track_coverage = args.coverage
    mcfs.options.trail_dir = args.trail_dir
    fsck_every = spec.fsck_every
    if args.mode == "dfs":
        result = mcfs.run_dfs(max_depth=args.depth,
                              max_operations=args.max_ops,
                              state_file=args.state_file,
                              por=args.por)
    else:
        result = mcfs.run_random(max_operations=args.max_ops or 1000,
                                 seed=args.seed,
                                 state_file=args.state_file)
    summary = RunSummary.from_result(result, show_fsck=bool(fsck_every))
    if result.trail_path and args.minimize:
        _minimize_into(result.trail_path, summary)
    print(summary.render())
    if args.coverage:
        print("\ncoverage:")
        print(mcfs.coverage_report().render())
    if result.found_discrepancy:
        print("\n" + str(result.report))
        return 1
    print("\nno discrepancies found")
    return 0


def cmd_swarm(args) -> int:
    """``repro check --workers N`` plus per-worker throughput."""
    if len(args.fs) < 2:
        print("error: --fs must be given at least twice (MCFS compares "
              "file systems)", file=sys.stderr)
        return 2
    _validate_fs_and_bugs(args)
    return _run_campaign(args, per_worker=True)


def cmd_fsck(args) -> int:
    """Offline fsck over saved device images (repro.analysis.fsck)."""
    from repro.analysis.fsck import check_images, detect_fstype

    jobs = []
    for path in args.image:
        try:
            with open(path, "rb") as handle:
                image = handle.read()
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        jobs.append({
            "image": image,
            "fstype": None if args.type == "auto" else args.type,
            "block_size": args.block_size,
            "erase_block_size": args.erase_block_size,
        })
    results = check_images(jobs, max_workers=args.jobs)
    total_errors = 0
    for path, job, findings in zip(args.image, jobs, results):
        fstype = job["fstype"] or detect_fstype(job["image"]) or "unknown"
        errors = [f for f in findings if f.severity == "error"]
        total_errors += len(errors)
        status = "clean" if not errors else f"{len(errors)} error(s)"
        print(f"{path} [{fstype}]: {status}")
        for finding in findings:
            print(f"  {finding.describe()}")
    return 1 if total_errors else 0


def cmd_analyze(args) -> int:
    """Whole-program analyzer: determinism lint + the four soundness
    passes, unified behind one rule registry.  Errors are always
    fatal; warns only under ``--strict``; info never."""
    import repro
    from repro.analysis.static import RENDERERS, run_analysis
    from repro.analysis.static.baseline import render_baseline

    try:
        findings = run_analysis(
            args.path or None,
            baseline_path=args.baseline,
            use_baseline=not args.no_baseline,
        )
    except (ValueError, OSError) as exc:
        print(f"repro analyze: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        root = os.path.dirname(os.path.abspath(repro.__file__))
        suppressible = [f for f in findings
                        if f.detail.get("symbol")]
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            handle.write(render_baseline(suppressible, root))
        print(f"wrote {len(suppressible)} baseline entr"
              f"{'y' if len(suppressible) == 1 else 'ies'} to "
              f"{args.write_baseline}; fill in the justifications")
    rendered = RENDERERS[args.format](findings)
    sys.stdout.write(rendered if rendered.endswith("\n") else rendered + "\n")
    errors = [f for f in findings if f.severity == "error"]
    warns = [f for f in findings if f.severity == "warn"]
    if errors or (args.strict and warns):
        return 1
    return 0


def cmd_bugdemo(args) -> int:
    if args.bug not in BUG_PAIRS:
        print(f"unknown bug {args.bug!r}; see 'repro list'", file=sys.stderr)
        return 2
    reference, buggy, depth, profile = BUG_PAIRS[args.bug]
    mcfs = hunt_spec(args.bug).build_mcfs()
    mcfs.options.trail_dir = args.trail_dir
    print(f"hunting {args.bug} in {buggy} (reference: {reference}, "
          f"profile: {profile}) ...")
    result = mcfs.run_dfs(max_depth=depth, max_operations=400_000)
    if result.found_discrepancy:
        print(f"found after {result.operations} operations\n")
        if result.trail_path:
            print(f"trail: {result.trail_path}\n")
        print(result.report)
        return 1
    print("bug not found within the bounded search (unexpected)")
    return 0


def cmd_replay(args) -> int:
    """Re-execute a trail; exit 0 only on CONFIRMED.

    Anything else on a freshly captured trail means the harness itself
    is non-deterministic -- which is why CI runs this as a smoke test.
    """
    from repro.trail import Trail, TrailFormatError, replay_trail

    try:
        trail = Trail.load(args.trail)
    except (TrailFormatError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(trail.describe())
    result = replay_trail(trail)
    print(result.describe())
    return 0 if result.confirmed else 1


def cmd_minimize(args) -> int:
    """ddmin a trail down to a 1-minimal reproducer."""
    from repro.trail import Trail, TrailFormatError, minimize_trail

    try:
        trail = Trail.load(args.trail)
    except (TrailFormatError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(trail.describe())
    try:
        result = minimize_trail(trail, max_probes=args.max_probes)
    except (ValueError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.describe())
    output = args.output
    if output is None:
        stem = args.trail
        if stem.endswith(".trail.json"):
            stem = stem[:-len(".trail.json")]
        output = f"{stem}.min.trail.json"
    result.trail.save(output)
    print(f"wrote {output}")
    print(result.trail.describe())
    return 0


# ------------------------------------------------------------------ server --
def _parse_budget(text: str):
    """``tenant=BYTES`` with optional k/m/g suffix (e.g. ``ci=64m``)."""
    name, separator, amount = text.partition("=")
    if not separator or not name or not amount:
        raise argparse.ArgumentTypeError(
            f"budget must look like tenant=BYTES, got {text!r}")
    multiplier = 1
    suffix = amount[-1].lower()
    if suffix in "kmg":
        multiplier = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}[suffix]
        amount = amount[:-1]
    try:
        return name, int(amount) * multiplier
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"budget amount {amount!r} is not an integer")


def _client_from_args(args):
    from repro.server import ReproClient

    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        return ReproClient(host=host or "127.0.0.1", port=int(port))
    return ReproClient(socket_path=args.socket)


def _render_event(event) -> str:
    payload = event.get("payload", {})
    detail = " ".join(f"{key}={payload[key]}" for key in sorted(payload))
    return (f"[{event.get('vtime', 0.0):10.3f}] "
            f"{event.get('job_id', '?'):10s} {event.get('kind', '?'):12s} "
            f"{detail}")


def cmd_serve(args) -> int:
    """Run the campaign daemon in the foreground."""
    from repro.server import EngineConfig, ReproServer

    config = EngineConfig(
        slots=args.slots,
        tenant_budgets=dict(args.budget or ()),
        trail_dir=args.trail_dir,
        spool_dir=args.spool,
        heartbeat_operations=args.heartbeat_ops,
    )
    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        server = ReproServer(host=host or "127.0.0.1",
                             port=int(port), config=config)
    else:
        server = ReproServer(socket_path=args.socket, config=config)
    server.start()
    restored = len(server.engine.jobs)
    print(f"repro server listening on {server.address} "
          f"({args.slots} slot(s)"
          + (f", {restored} job(s) restored from spool" if restored else "")
          + ")")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down: pausing running jobs into the spool")
        server.stop()
    return 0


def cmd_submit(args) -> int:
    """Queue a campaign on a running daemon (optionally watch it)."""
    from repro.server import RequestFailed, ServerUnavailable

    if len(args.fs) < 2:
        print("error: --fs must be given at least twice (MCFS compares "
              "file systems)", file=sys.stderr)
        return 2
    _validate_fs_and_bugs(args)
    spec = _spec_from_args(args)
    try:
        with _client_from_args(args) as client:
            job = client.submit(spec, tenant=args.tenant,
                                priority=args.priority,
                                workers=args.job_workers)
            print(f"submitted {job['job_id']} "
                  f"(tenant {job['tenant']}, priority {job['priority']}, "
                  f"{job['units_total']} units, "
                  f"store {job['effective_store']}"
                  + (" [forced by budget]" if job["store_forced"] else "")
                  + ")")
            if not args.watch:
                return 0
            return _watch_until_done(client, job["job_id"], from_seq=0)
    except (ServerUnavailable, RequestFailed) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _watch_until_done(client, job_id: str, from_seq: int) -> int:
    for event in client.watch(job_id, from_seq=from_seq):
        print(_render_event(event))
    final = client.job(job_id)
    if final["state"] != "done" or final["discrepancies"]:
        return 1
    return 0


def cmd_jobs(args) -> int:
    """List the daemon's job table."""
    from repro.server import ServerUnavailable

    try:
        with _client_from_args(args) as client:
            jobs = client.jobs()
    except ServerUnavailable as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not jobs:
        print("no jobs")
        return 0
    print(f"{'job':10s} {'tenant':10s} {'state':10s} {'prio':>4s} "
          f"{'units':>9s} {'ops':>8s} {'states':>8s} {'disc':>4s} store")
    for job in jobs:
        units = f"{job['units_done']}/{job['units_total']}"
        forced = " (forced)" if job["store_forced"] else ""
        print(f"{job['job_id']:10s} {job['tenant']:10s} {job['state']:10s} "
              f"{job['priority']:4d} {units:>9s} {job['operations']:8d} "
              f"{job['visited_states']:8d} {job['discrepancies']:4d} "
              f"{job['effective_store']}{forced}")
    return 0


def cmd_watch(args) -> int:
    """Stream one job's (or every job's) events to stdout."""
    from repro.server import RequestFailed, ServerUnavailable

    try:
        with _client_from_args(args) as client:
            if args.job == "*":
                for event in client.watch("*", from_seq=args.from_seq,
                                          follow=args.follow):
                    print(_render_event(event))
                return 0
            return _watch_until_done(client, args.job,
                                     from_seq=args.from_seq)
    except (ServerUnavailable, RequestFailed) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _job_verb(args, verb: str) -> int:
    from repro.server import RequestFailed, ServerUnavailable

    try:
        with _client_from_args(args) as client:
            job = getattr(client, verb)(args.job)
            print(f"{job['job_id']}: {job['state']} "
                  f"({job['units_done']}/{job['units_total']} units)")
            return 0
    except (ServerUnavailable, RequestFailed) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def cmd_pause(args) -> int:
    return _job_verb(args, "pause")


def cmd_resume(args) -> int:
    return _job_verb(args, "resume")


def cmd_cancel(args) -> int:
    return _job_verb(args, "cancel")


def cmd_shutdown(args) -> int:
    """Stop a running daemon gracefully (running jobs spool as paused)."""
    from repro.server import RequestFailed, ServerUnavailable

    try:
        with _client_from_args(args) as client:
            client.shutdown()
            print("daemon stopping (running jobs paused into the spool)")
            return 0
    except (ServerUnavailable, RequestFailed) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _add_address_arguments(parser) -> None:
    parser.add_argument("--socket", default="repro-server.sock",
                        metavar="PATH",
                        help="unix socket the daemon listens on "
                             "(default repro-server.sock)")
    parser.add_argument("--tcp", default=None, metavar="HOST:PORT",
                        help="listen/connect over TCP instead of the "
                             "unix socket")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MCFS: model-check file systems against each other",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list file systems, strategies, bugs") \
        .set_defaults(func=cmd_list)

    check = subparsers.add_parser("check", help="run a checking campaign")
    check.add_argument("--fs", action="append", default=[],
                       help=f"file system to check (repeatable); one of "
                            f"{', '.join(FILESYSTEMS)}")
    check.add_argument("--mode", choices=("dfs", "random"), default="dfs")
    check.add_argument("--depth", type=int, default=2,
                       help="DFS depth bound (default 2)")
    check.add_argument("--max-ops", type=int, default=None,
                       help="operation budget")
    check.add_argument("--seed", type=int, default=0, help="random-walk seed")
    check.add_argument("--strategy", choices=tuple(STRATEGIES), default=None,
                       help="checkpoint strategy for every fs (default: "
                            "remount for kernel fs, ioctl for VeriFS)")
    check.add_argument("--equalize", action="store_true",
                       help="equalize free space at startup (§3.4)")
    check.add_argument("--voting", action="store_true",
                       help="majority voting with >= 3 file systems (§7)")
    check.add_argument("--coverage", action="store_true",
                       help="print behavioural coverage at the end (§7)")
    check.add_argument("--state-file", default=None,
                       help="persist/resume the visited-state table (§7)")
    check.add_argument("--por", action="store_true",
                       help="sleep-set partial-order reduction (DFS only)")
    check.add_argument("--pool", choices=sorted(PRESETS), default="default",
                       help="workload preset (see repro.workload)")
    check.add_argument("--input-profile", action="append", default=[],
                       metavar="SPEC",
                       help="input-exploration profile: uniform | "
                            "write-heavy | meta-churn | boundary | "
                            "custom:op=weight,... with optional +boundary "
                            "/ +steer flags; repeat to rotate profiles "
                            "across work units (see docs/workloads.md)")
    check.add_argument("--fsck-oracle", action="store_true",
                       help="run the offline fsck oracle over every "
                            "device image during exploration")
    check.add_argument("--fsck-every", type=int, default=None, metavar="N",
                       help="oracle period in operations (implies "
                            "--fsck-oracle; default 10)")
    check.add_argument("--workers", type=int, default=None, metavar="N",
                       help="run the campaign on N real worker processes "
                            "(random mode only; result is identical for "
                            "any N)")
    check.add_argument("--units", type=int, default=8,
                       help="work units to partition the campaign into "
                            "(with --workers; default 8)")
    check.add_argument("--unit-depth", dest="dist_depth", type=int,
                       default=12,
                       help="per-unit depth bound for distributed runs "
                            "(default 12)")
    check.add_argument("--state-store", default="exact", metavar="SPEC",
                       help="visited-state store: exact | hc[:bytes] | "
                            "bitstate[:bits,k] "
                            "(lossy modes report their omission "
                            "probability; default exact)")
    check.add_argument("--check-every", type=int, default=1, metavar="N",
                       help="random mode: compare abstract states only "
                            "every N operations (amortised checking; "
                            "trails get longer, which 'repro minimize' "
                            "exists for; default 1)")
    check.add_argument("--data-plane", choices=("auto", "shm", "rpc"),
                       default="auto",
                       help="distributed visited-state plane: "
                            "shared-memory segments or batched pipe RPC "
                            "(auto picks shm when the platform supports "
                            "it; the plane never changes what is found)")
    check.add_argument("--profile", action="store_true",
                       help="break per-state cost into abstraction-walk / "
                            "fingerprint / ship / snapshot-restore "
                            "buckets (measurement only)")
    check.add_argument("--trail-dir", default=None, metavar="DIR",
                       help="capture every discrepancy as a replayable "
                            "*.trail.json under DIR")
    check.add_argument("--minimize", action="store_true",
                       help="ddmin a captured trail to a 1-minimal "
                            "reproducer before exiting (needs --trail-dir)")
    check.add_argument("--inject-bug", action="append", default=[],
                       metavar="BUG",
                       help="inject a VeriFS bug (repeatable; the last "
                            "--fs must be a verifs); see 'repro list'")
    check.set_defaults(func=cmd_check)

    swarm = subparsers.add_parser(
        "swarm", help="distributed campaign with per-worker throughput")
    swarm.add_argument("--fs", action="append", default=[],
                       help=f"file system to check (repeatable); one of "
                            f"{', '.join(FILESYSTEMS)}")
    swarm.add_argument("--workers", type=int, default=2,
                       help="worker processes (default 2)")
    swarm.add_argument("--units", type=int, default=8,
                       help="work units (fixed by the spec, not the fleet; "
                            "default 8)")
    swarm.add_argument("--max-ops", type=int, default=None,
                       help="total operation budget across units")
    swarm.add_argument("--seed", type=int, default=1, help="base seed")
    swarm.add_argument("--pool", choices=sorted(PRESETS), default="default",
                       help="workload preset (see repro.workload)")
    swarm.add_argument("--input-profile", action="append", default=[],
                       metavar="SPEC",
                       help="input-exploration profile (repeatable: "
                            "members rotate through the list, diversifying "
                            "by profile as well as seed)")
    swarm.add_argument("--unit-depth", dest="dist_depth", type=int,
                       default=12, help="per-unit depth bound (default 12)")
    swarm.add_argument("--strategy", choices=tuple(STRATEGIES), default=None,
                       help="checkpoint strategy for every fs")
    swarm.add_argument("--equalize", action="store_true",
                       help="equalize free space at startup (§3.4)")
    swarm.add_argument("--voting", action="store_true",
                       help="majority voting with >= 3 file systems (§7)")
    swarm.add_argument("--fsck-oracle", action="store_true",
                       help="run the offline fsck oracle during exploration")
    swarm.add_argument("--fsck-every", type=int, default=None, metavar="N",
                       help="oracle period in operations (implies "
                            "--fsck-oracle; default 10)")
    swarm.add_argument("--state-store", default="exact", metavar="SPEC",
                       help="visited-state store for the fleet: exact | "
                            "hc[:bytes] | bitstate[:bits,k] "
                            "(hc ships its compacted fingerprints over "
                            "the wire; default exact)")
    swarm.add_argument("--check-every", type=int, default=1, metavar="N",
                       help="compare abstract states only every N "
                            "operations per unit (default 1)")
    swarm.add_argument("--data-plane", choices=("auto", "shm", "rpc"),
                       default="auto",
                       help="visited-state plane: shared-memory "
                            "segments or batched pipe RPC (auto prefers "
                            "shm where supported)")
    swarm.add_argument("--profile", action="store_true",
                       help="report the fleet's merged per-state cost "
                            "breakdown (measurement only)")
    swarm.add_argument("--trail-dir", default=None, metavar="DIR",
                       help="capture each unit's discrepancy as a "
                            "replayable *.trail.json under DIR")
    swarm.add_argument("--inject-bug", action="append", default=[],
                       metavar="BUG",
                       help="inject a VeriFS bug (repeatable; the last "
                            "--fs must be a verifs); see 'repro list'")
    swarm.set_defaults(func=cmd_swarm)

    fsck = subparsers.add_parser(
        "fsck", help="offline-check saved device images for corruption")
    fsck.add_argument("image", nargs="+", help="raw device image file(s)")
    fsck.add_argument("--type", default="auto",
                      choices=("auto", "ext2", "ext4", "xfs", "jffs2"),
                      help="image format (default: detect by magic)")
    fsck.add_argument("--block-size", type=int, default=None,
                      help="block size for ext2/ext4/xfs images")
    fsck.add_argument("--erase-block-size", type=int, default=None,
                      help="erase-block size for jffs2 images")
    fsck.add_argument("--jobs", type=int, default=None,
                      help="worker-pool width (default: one per image, "
                           "capped at the CPU count)")
    fsck.set_defaults(func=cmd_fsck)

    analyze = subparsers.add_parser(
        "analyze", help="whole-program soundness analysis "
                        "(determinism lint + static passes)")
    analyze.add_argument("path", nargs="*",
                         help="files/directories to analyze (default: "
                              "the installed repro package)")
    analyze.add_argument("--strict", action="store_true",
                         help="exit nonzero on warnings too")
    analyze.add_argument("--format", default="text",
                         choices=("text", "json", "sarif"),
                         help="output format (default: text)")
    analyze.add_argument("--baseline", default=None, metavar="FILE",
                         help="baseline file of accepted findings "
                              "(default: the committed "
                              "analysis-baseline.json)")
    analyze.add_argument("--no-baseline", action="store_true",
                         help="report findings the baseline would "
                              "otherwise suppress")
    analyze.add_argument("--write-baseline", default=None, metavar="FILE",
                         help="write the current findings as a baseline "
                              "skeleton (justifications left empty on "
                              "purpose)")
    analyze.set_defaults(func=cmd_analyze)

    bugdemo = subparsers.add_parser(
        "bugdemo", help="reproduce one of the paper's §6 historical bugs")
    bugdemo.add_argument("--bug", required=True,
                         help="bug id (see 'repro list')")
    bugdemo.add_argument("--trail-dir", default=None, metavar="DIR",
                         help="capture the find as a replayable "
                              "*.trail.json under DIR")
    bugdemo.set_defaults(func=cmd_bugdemo)

    replay = subparsers.add_parser(
        "replay", help="deterministically re-execute a captured trail")
    replay.add_argument("trail", help="a *.trail.json file")
    replay.set_defaults(func=cmd_replay)

    minimize = subparsers.add_parser(
        "minimize", help="ddmin a trail to a 1-minimal reproducer")
    minimize.add_argument("trail", help="a *.trail.json file")
    minimize.add_argument("-o", "--output", default=None,
                          help="where to write the minimized trail "
                               "(default: alongside, *.min.trail.json)")
    minimize.add_argument("--max-probes", type=int, default=5000,
                          help="ddmin probe budget (default 5000)")
    minimize.set_defaults(func=cmd_minimize)

    serve = subparsers.add_parser(
        "serve", help="run the campaign daemon (campaign-as-a-service)")
    _add_address_arguments(serve)
    serve.add_argument("--slots", type=int, default=2,
                       help="concurrently running jobs (default 2)")
    serve.add_argument("--spool", default=None, metavar="DIR",
                       help="job spool directory: queued and paused jobs "
                            "survive a daemon restart")
    serve.add_argument("--trail-dir", default=None, metavar="DIR",
                       help="capture job discrepancies as *.trail.json "
                            "under DIR (streamed to watchers)")
    serve.add_argument("--budget", action="append", type=_parse_budget,
                       metavar="TENANT=BYTES",
                       help="per-tenant visited-store byte budget "
                            "(repeatable; suffixes k/m/g; over-budget "
                            "submissions are forced to a bitstate store)")
    serve.add_argument("--heartbeat-ops", type=int, default=100,
                       help="in-unit heartbeat period in operations "
                            "(default 100)")
    serve.set_defaults(func=cmd_serve)

    submit = subparsers.add_parser(
        "submit", help="queue a campaign on a running daemon")
    _add_address_arguments(submit)
    submit.add_argument("--fs", action="append", default=[],
                        help=f"file system to check (repeatable); one of "
                             f"{', '.join(FILESYSTEMS)}")
    submit.add_argument("--tenant", default="default",
                        help="tenant the job's store budget is charged to")
    submit.add_argument("--priority", type=int, default=0,
                        help="queue priority (higher runs first; default 0)")
    submit.add_argument("--job-workers", type=int, default=1, metavar="N",
                        help="fleet width for this job: 1 runs units "
                             "inline in the daemon, N>1 drives a real "
                             "worker fleet per slice (default 1)")
    submit.add_argument("--watch", action="store_true",
                        help="stream the job's events until it finishes "
                             "(exit 1 on discrepancies)")
    submit.add_argument("--units", type=int, default=8,
                        help="work units to partition the campaign into "
                             "(default 8)")
    submit.add_argument("--max-ops", type=int, default=None,
                        help="total operation budget across units")
    submit.add_argument("--seed", type=int, default=1, help="base seed")
    submit.add_argument("--pool", choices=sorted(PRESETS), default="default",
                        help="workload preset (see repro.workload)")
    submit.add_argument("--input-profile", action="append", default=[],
                        metavar="SPEC",
                        help="input-exploration profile (repeatable: "
                             "units rotate through the list)")
    submit.add_argument("--unit-depth", dest="dist_depth", type=int,
                        default=12, help="per-unit depth bound (default 12)")
    submit.add_argument("--strategy", choices=tuple(STRATEGIES), default=None,
                        help="checkpoint strategy for every fs")
    submit.add_argument("--equalize", action="store_true",
                        help="equalize free space at startup (§3.4)")
    submit.add_argument("--voting", action="store_true",
                        help="majority voting with >= 3 file systems (§7)")
    submit.add_argument("--fsck-oracle", action="store_true",
                        help="run the offline fsck oracle during "
                             "exploration")
    submit.add_argument("--fsck-every", type=int, default=None, metavar="N",
                        help="oracle period in operations (implies "
                             "--fsck-oracle; default 10)")
    submit.add_argument("--state-store", default="exact", metavar="SPEC",
                        help="visited-state store: exact | hc[:bytes] | "
                             "bitstate[:bits,k] (a tenant "
                             "over budget is forced to bitstate)")
    submit.add_argument("--check-every", type=int, default=1, metavar="N",
                        help="compare abstract states only every N "
                             "operations per unit (default 1)")
    submit.add_argument("--inject-bug", action="append", default=[],
                        metavar="BUG",
                        help="inject a VeriFS bug (repeatable); see "
                             "'repro list'")
    submit.set_defaults(func=cmd_submit)

    jobs = subparsers.add_parser(
        "jobs", help="list the daemon's job table")
    _add_address_arguments(jobs)
    jobs.set_defaults(func=cmd_jobs)

    watch = subparsers.add_parser(
        "watch", help="stream a job's event log (or '*' for all jobs)")
    _add_address_arguments(watch)
    watch.add_argument("job", help="job id, or '*' for every job")
    watch.add_argument("--from-seq", type=int, default=0,
                       help="replay the log from this sequence number "
                            "(default 0: everything)")
    watch.add_argument("--no-follow", dest="follow", action="store_false",
                       help="with '*': stop after the replay instead of "
                            "streaming live events")
    watch.set_defaults(func=cmd_watch)

    for verb, handler, title in (
            ("pause", cmd_pause,
             "pause a job at its next unit boundary (snapshot to spool)"),
            ("resume", cmd_resume, "re-queue a paused job"),
            ("cancel", cmd_cancel, "cancel a queued/running/paused job")):
        verb_parser = subparsers.add_parser(verb, help=title)
        _add_address_arguments(verb_parser)
        verb_parser.add_argument("job", help="job id")
        verb_parser.set_defaults(func=handler)

    shutdown = subparsers.add_parser(
        "shutdown", help="stop a running daemon (running jobs spool "
                         "as paused)")
    _add_address_arguments(shutdown)
    shutdown.set_defaults(func=cmd_shutdown)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
