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
import sys
from functools import partial
from typing import List, Optional

from repro.core.report import RunSummary
from repro.dist.spec import (
    FILESYSTEMS,
    KERNEL_FS,
    STRATEGIES,
    WALK_OPERATIONS,
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
    """The complete hunt for ``bug`` (a ``BUG_PAIRS`` key): a DFS of the
    buggy file system against its reference to that entry's depth."""
    reference, buggy, depth, profile = BUG_PAIRS[bug]
    return CheckSpec(filesystems=(reference, buggy), include_extended=False,
                     verifs_bugs=(bug,), input_profile=profile,
                     mode="dfs", depth=depth, max_ops=400_000)


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


CHECK, FLEET = ("check",), ("check", "swarm")
CAMPAIGN = ("check", "swarm", "submit")
STORE_TRUE = dict(action="store_true")

#: Every spec-field flag of ``check``/``swarm``/``submit``, one row per
#: flag: the commands that take it, the :class:`CheckSpec` field its
#: value fills (None: :func:`spec_from_args` derives the field from
#: it), and its argparse keywords.  A flag whose default differs by
#: command has one row per default.
SPEC_FLAGS = (
    ("--fs", CAMPAIGN, "filesystems", dict(action="append", default=[], help=(
        f"file system to check (repeatable): {' | '.join(FILESYSTEMS)}"))),
    ("--mode", CHECK, "mode", dict(choices=("dfs", "random"), default="dfs")),
    ("--depth", CHECK, "depth", dict(type=int, default=2, help=(
        "DFS depth bound (default 2)"))),
    ("--por", CHECK, "por", dict(STORE_TRUE, help=(
        "sleep sets + name symmetry (DFS only)"))),
    ("--coverage", CHECK, "coverage", dict(STORE_TRUE, help=(
        "print behavioural coverage (§7)"))),
    ("--max-ops", CAMPAIGN, "max_ops", dict(type=int, help=(
        "operation budget (a campaign's total across its units)"))),
    ("--seed", CHECK, "base_seed", dict(type=int, default=0, help=(
        "random-walk seed"))),
    ("--seed", ("swarm", "submit"), "base_seed", dict(type=int, default=1,
                                                      help="base seed")),
    ("--units", CAMPAIGN, "units", dict(type=int, default=8, help=(
        "work units of a campaign (fixed by the spec, not the fleet)"))),
    ("--unit-depth", CAMPAIGN, "max_depth", dict(
        dest="dist_depth", type=int, default=12,
        help="per-unit depth bound of a campaign (default 12)")),
    ("--strategy", CAMPAIGN, "strategy", dict(choices=tuple(STRATEGIES), help=(
        "checkpoint strategy for every fs (default: remount for kernel "
        "fs, ioctl for VeriFS)"))),
    ("--pool", CAMPAIGN, "pool", dict(choices=sorted(PRESETS),
                                      default="default",
                                      help="workload preset")),
    ("--input-profile", CAMPAIGN, None, dict(
        action="append", default=[], metavar="SPEC",
        help="input-exploration profile: uniform | write-heavy | meta-churn "
             "| boundary | custom:op=weight,... with optional +boundary / "
             "+steer; repeat to rotate profiles across work units")),
    ("--equalize", CAMPAIGN, "equalize", dict(STORE_TRUE, help=(
        "equalize free space at startup (§3.4)"))),
    ("--voting", CAMPAIGN, "voting", dict(STORE_TRUE, help=(
        "majority voting with >= 3 file systems (§7)"))),
    ("--fsck-oracle", CAMPAIGN, None, dict(STORE_TRUE, help=(
        "run the offline fsck oracle over the device images"))),
    ("--fsck-every", CAMPAIGN, None, dict(type=int, metavar="N", help=(
        "oracle period in operations (implies --fsck-oracle; default 10)"))),
    ("--state-store", CAMPAIGN, "state_store", dict(
        default="exact", metavar="SPEC",
        help="visited-state store: exact | hc[:bytes] | bitstate[:bits,k] "
             "(lossy stores report their omission probability)")),
    ("--check-every", CAMPAIGN, "state_check_every", dict(
        type=int, default=1, metavar="N",
        help="random walks: compare abstract states every N operations")),
    ("--profile", FLEET, "profile", dict(STORE_TRUE, help=(
        "per-state cost breakdown (measurement only)"))),
    ("--inject-bug", CAMPAIGN, "verifs_bugs", dict(
        action="append", default=[], metavar="BUG",
        help="inject a VeriFS bug into the last --fs (repeatable)")),
)


def _add_spec_flags(parser, command: str) -> None:
    for flag, commands, _field, keywords in SPEC_FLAGS:
        if command in commands:
            parser.add_argument(flag, **keywords)


def spec_from_args(args) -> CheckSpec:
    """The run a ``check``/``swarm``/``submit`` command line describes;
    raises ``ValueError`` when it is not a valid run."""
    values = {}
    for flag, _commands, field, keywords in SPEC_FLAGS:
        dest = keywords.get("dest", flag[2:].replace("-", "_"))
        if field is not None and hasattr(args, dest):
            value = getattr(args, dest)
            values[field] = tuple(value) if isinstance(value, list) else value
    profiles = tuple(args.input_profile)
    fsck_every = args.fsck_every
    if fsck_every is None and args.fsck_oracle:
        fsck_every = 10
    total_operations = args.max_ops or WALK_OPERATIONS
    return CheckSpec(
        # one --input-profile applies fleet-wide; several rotate across
        # units (profile diversification on top of seed diversification)
        input_profile=profiles[0] if profiles else "uniform",
        profile_rotation=profiles if len(profiles) > 1 else (),
        fsck_every=fsck_every,
        # --units below 1 is the spec's to refuse
        unit_operations=max(1, total_operations // max(1, args.units)),
        **values)


def _minimize_into(trail_path: str, summary: RunSummary) -> None:
    """``--minimize``: shrink a freshly captured trail, save it next to
    the original, and fold the result into the run summary."""
    from repro.trail import Trail, minimize_trail

    result = minimize_trail(Trail.load(trail_path))
    minimized_path = _minimized_path(trail_path)
    result.trail.save(minimized_path)
    summary.minimized_operations = result.minimized_operations
    print(result.describe())
    print(f"minimized trail: {minimized_path}")


def cmd_check(args, per_worker: bool = False) -> int:
    """``repro check`` and ``repro swarm``: one campaign, one summary.
    Without ``--workers``, ``check`` runs the spec's local run, its
    one-unit campaign, inline; ``swarm`` adds the per-worker table."""
    from repro.dist import DistributedChecker

    fleet = args.workers is not None
    spec = args.spec if fleet else args.spec.local_run()
    state_file = getattr(args, "state_file", None)
    try:
        dist = DistributedChecker(
            spec, workers=args.workers or 0,
            state_file=state_file, trail_dir=args.trail_dir).run()
    except ValueError as error:  # a malformed --state-file, a dfs fleet
        print(f"error: {error}", file=sys.stderr)
        return 2
    summary = RunSummary.from_campaign(dist, show_fsck=bool(spec.fsck_every))
    if summary.trail_path and getattr(args, "minimize", False):
        _minimize_into(summary.trail_path, summary)
    print(summary.render())
    for path in dist.trail_paths[1:]:
        print(f"trail      : {path}")
    if fleet:
        print(f"workers    : {dist.workers} ({len(dist.unit_results)} units, "
              f"{dist.stolen_units} stolen, {dist.recovered_units} "
              f"recovered, {dist.inline_units} inline), "
              f"{dist.wall_states_per_second:.1f} states/s wall")
    if dist.resumed_units or dist.resumed_states:
        print(f"resumed    : {dist.resumed_units} finished unit(s), "
              f"{dist.resumed_states} state(s) from {state_file}")
    if fleet:
        print(f"speedup    : {dist.speedup:.2f}x modeled "
              f"({dist.sequential_sim_time:.3f}s sequential -> "
              f"{dist.modeled_parallel_time:.3f}s parallel)")
    if per_worker:
        print(f"{'worker':8s} {'units':>5s} {'ops':>8s} {'sim s':>8s} "
              f"{'wall s':>8s} {'ops/s (wall)':>12s}")
        for worker in dist.worker_summaries:
            note = "" if worker.alive_at_end else "  [died]"
            print(f"{worker.worker_id:8s} {worker.units_completed:5d} "
                  f"{worker.operations:8d} {worker.sim_time:8.3f} "
                  f"{worker.wall_time:8.2f} "
                  f"{worker.wall_ops_per_second:12.1f}{note}")
        print(f"merged states : {dist.visited_states} "
              f"({dist.cross_worker_duplicates} duplicates shipped) "
              f"in {dist.wall_time:.2f}s wall")
    if not fleet:  # a fleet's records keep no coverage: print none
        for unit in dist.ran_results:
            if unit.coverage is not None:
                print(f"\ncoverage:\n{unit.coverage.render()}")
    discrepancies = dist.discrepancies
    if discrepancies:
        if fleet:
            print(f"\n{len(discrepancies)} discrepancy(ies) across units")
        for report in discrepancies:
            print("\n" + str(report))
        return 1
    print("\nno discrepancies found")
    return 0


def cmd_fsck(args) -> int:
    """Offline fsck over saved device images (repro.analysis.fsck)."""
    from repro.analysis.fsck import check_image, detect_fstype

    images = []
    for path in args.image:
        try:
            with open(path, "rb") as handle:
                images.append(handle.read())
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    given = None if args.type == "auto" else args.type
    total_errors = 0
    for path, image in zip(args.image, images):
        findings = check_image(image, fstype=given,
                               erase_block_size=args.erase_block_size)
        fstype = given or detect_fstype(image) or "unknown"
        errors = [f for f in findings if f.severity == "error"]
        total_errors += len(errors)
        status = "clean" if not errors else f"{len(errors)} error(s)"
        print(f"{path} [{fstype}]: {status}")
        for finding in findings:
            print(f"  {finding.describe()}")
    return 1 if total_errors else 0


def cmd_analyze(args) -> int:
    """Determinism lint + the whole-program passes.  Errors are always
    fatal; warns only under ``--strict``."""
    from repro.analysis.analyze import render_text, run_analysis

    findings = run_analysis(args.path or None)
    print(render_text(findings))
    errors = [f for f in findings if f.severity == "error"]
    warns = [f for f in findings if f.severity == "warn"]
    if errors or (args.strict and warns):
        return 1
    return 0


def cmd_bugdemo(args) -> int:
    if args.bug not in BUG_PAIRS:
        print(f"unknown bug {args.bug!r}; see 'repro list'", file=sys.stderr)
        return 2
    spec = hunt_spec(args.bug)
    reference, buggy = spec.filesystems
    print(f"hunting {args.bug} in {buggy} (reference: {reference}, "
          f"profile: {spec.input_profile}) ...")
    result = spec.run(trail_dir=args.trail_dir)
    if result.found_discrepancy:
        print(f"found after {result.operations} operations\n")
        if result.trail_path:
            print(f"trail: {result.trail_path}\n")
        print(result.report)
        return 1
    print("bug not found within the bounded search (unexpected)")
    return 0


def _minimized_path(trail_path: str) -> str:
    """``x.trail.json`` -> ``x.min.trail.json``."""
    stem = trail_path
    if stem.endswith(".trail.json"):
        stem = stem[:-len(".trail.json")]
    return f"{stem}.min.trail.json"


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
    output = args.output or _minimized_path(args.trail)
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
    try:  # the spool reloads here: a torn job document is bad input
        if args.tcp:
            host, _, port = args.tcp.rpartition(":")
            server = ReproServer(host=host or "127.0.0.1",
                                 port=int(port), config=config)
        else:
            server = ReproServer(socket_path=args.socket, config=config)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
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


def _client_command(command):
    """A daemon client subcommand: ``command(client, args)`` runs on a
    connected client; an unreachable daemon or a refused request exits
    2, like any other invalid input."""
    def run(args) -> int:
        from repro.server import RequestFailed, ServerUnavailable

        try:
            with _client_from_args(args) as client:
                return command(client, args)
        except (ServerUnavailable, RequestFailed) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    return run


@_client_command
def cmd_submit(client, args) -> int:
    """Queue a campaign on a running daemon (optionally watch it)."""
    job = client.submit(args.spec, tenant=args.tenant,
                        priority=args.priority, workers=args.job_workers)
    print(f"submitted {job['job_id']} "
          f"(tenant {job['tenant']}, priority {job['priority']}, "
          f"{job['units_total']} units, "
          f"store {job['effective_store']}"
          + (" [forced by budget]" if job["store_forced"] else "")
          + ")")
    if not args.watch:
        return 0
    return _watch_until_done(client, job["job_id"], from_seq=0)


def _watch_until_done(client, job_id: str, from_seq: int) -> int:
    for event in client.watch(job_id, from_seq=from_seq):
        print(_render_event(event))
    final = client.job(job_id)
    if final["state"] != "done" or final["discrepancies"]:
        return 1
    return 0


@_client_command
def cmd_jobs(client, args) -> int:
    """List the daemon's job table."""
    jobs = client.jobs()
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


@_client_command
def cmd_watch(client, args) -> int:
    """Stream one job's (or every job's) events to stdout."""
    if args.job == "*":
        for event in client.watch("*", from_seq=args.from_seq,
                                  follow=args.follow):
            print(_render_event(event))
        return 0
    return _watch_until_done(client, args.job, from_seq=args.from_seq)


def _job_verb(verb: str):
    """``pause`` / ``resume`` / ``cancel``: one job, one state change."""
    @_client_command
    def command(client, args) -> int:
        job = getattr(client, verb)(args.job)
        print(f"{job['job_id']}: {job['state']} "
              f"({job['units_done']}/{job['units_total']} units)")
        return 0
    return command


@_client_command
def cmd_shutdown(client, args) -> int:
    """Stop a running daemon gracefully (running jobs spool as paused)."""
    client.shutdown()
    print("daemon stopping (running jobs paused into the spool)")
    return 0


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
    _add_spec_flags(check, "check")
    check.add_argument("--state-file", default=None,
                       help="persist/resume the visited-state table (§7)")
    check.add_argument("--workers", type=int, default=None, metavar="N",
                       help="run the campaign on N real worker processes "
                            "(identical for any N; a dfs search is one unit: "
                            "N <= 1); without it, one unit runs inline")
    check.add_argument("--trail-dir", default=None, metavar="DIR",
                       help="capture every discrepancy as a replayable "
                            "*.trail.json under DIR")
    check.add_argument("--minimize", action="store_true",
                       help="ddmin a captured trail to a 1-minimal "
                            "reproducer before exiting (needs --trail-dir)")
    check.set_defaults(func=cmd_check)

    swarm = subparsers.add_parser(
        "swarm", help="distributed campaign with per-worker throughput")
    _add_spec_flags(swarm, "swarm")
    swarm.add_argument("--workers", type=int, default=2,
                       help="worker processes (default 2)")
    swarm.add_argument("--trail-dir", default=None, metavar="DIR",
                       help="capture each unit's discrepancy as a "
                            "replayable *.trail.json under DIR")
    swarm.set_defaults(func=partial(cmd_check, per_worker=True))

    fsck = subparsers.add_parser(
        "fsck", help="offline-check saved device images for corruption")
    fsck.add_argument("image", nargs="+", help="raw device image file(s)")
    fsck.add_argument("--type", default="auto",
                      choices=("auto", "ext2", "ext4", "xfs", "jffs2"),
                      help="image format (default: detect by magic)")
    fsck.add_argument("--erase-block-size", type=int, default=None,
                      help="erase-block size for jffs2 images")
    fsck.set_defaults(func=cmd_fsck)

    analyze = subparsers.add_parser(
        "analyze", help="determinism lint + whole-program soundness "
                        "passes over the sources")
    analyze.add_argument("path", nargs="*",
                         help="files/directories to analyze (default: "
                              "the installed repro package)")
    analyze.add_argument("--strict", action="store_true",
                         help="exit nonzero on warnings too")
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
    _add_spec_flags(submit, "submit")
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

    for verb, title in (
            ("pause", "pause a job at its next unit boundary (snapshot to "
                      "spool)"),
            ("resume", "re-queue a paused job"),
            ("cancel", "cancel a queued/running/paused job")):
        verb_parser = subparsers.add_parser(verb, help=title)
        _add_address_arguments(verb_parser)
        verb_parser.add_argument("job", help="job id")
        verb_parser.set_defaults(func=_job_verb(verb))

    shutdown = subparsers.add_parser(
        "shutdown", help="stop a running daemon (running jobs spool "
                         "as paused)")
    _add_address_arguments(shutdown)
    shutdown.set_defaults(func=cmd_shutdown)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "fs"):  # check / swarm / submit describe a CheckSpec
        try:
            args.spec = spec_from_args(args)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2  # invalid input; 1 means a discrepancy was found
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
