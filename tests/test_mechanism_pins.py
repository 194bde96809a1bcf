"""Mechanism-only changes, held to their counts.

A change to how the message, syscall, digest or search path is *built*
(positional FUSE dispatch, cheaper value objects, a flatter digest chain,
per-run commutation sets) must leave every count the simulation produces
exactly where it was.  These tests make that executable:

* the count pin runs the VeriFS1 vs VeriFS2 ioctl DFS at depth 4 and
  asserts the syscall, round-trip, handler and search counts, the
  simulated time and the visited ``{state: depth}`` map, all as recorded
  before the mechanism work (the ``por`` counts re-recorded when name
  symmetry joined the reduction; the map did not move);
* the schedule pins digest every recorded event, the (state, depth)
  expansion sequence and the stats of six runs (DFS exhausted and cut
  by each budget, one seeded-bug hunt, one random walk), recorded on
  the recursive search before it became a loop over explicit frames;
* the tracer contract installs class-level counting wrappers the way
  ``bench/tracer.py`` does *after* the harness is built and checks that
  every wrapper saw exactly what the matching public counter saw -- an
  optimisation that binds a bound method at construction time would go
  dark in traced runs and fail here;
* the profiler contract checks that ``--profile`` still charges the
  digest and snapshot buckets and changes nothing a run finds.
"""

import hashlib
import json
import types
from collections import Counter

import pytest

from repro.cli import hunt_spec
from repro.core.futs import FilesystemUnderTest
from repro.core.ops import OperationCatalog
from repro.core.report import schedule_event_to_dict
from repro.dist.spec import CheckSpec
from repro.fuse.connection import FuseConnection
from repro.fuse.server import FuseServerProcess
from repro.kernel.kernel import Kernel
from repro.mc.explorer import Explorer
from repro.mc.persistence import load_checker_state

VERIFS_PAIR = CheckSpec(filesystems=("verifs1", "verifs2"), strategy="ioctl")

#: depth-4 counts of ``VERIFS_PAIR.build_mcfs().run_dfs`` by ``por``:
#: syscalls, FUSE round trips, FUSE handler calls, simulated seconds,
#: unique states, transitions, checkpoints, restores, slept, memo hits
PINS = {
    False: (134244, 120284, 120284, 1.921603600006507,
            1305, 12779, 6765, 6765, 0, 2302),
    True: (38463, 36403, 36403, 0.6003541999999662,
           1305, 4133, 2190, 2190, 3606, 676),
}

#: md5 of ``repr(sorted(map.items()))`` for the naive reference DFS of
#: ``tests/test_dfs_memo.py`` (``reference_dfs``) at depth 4; POR (sleep
#: sets and name symmetry) keeps the visited set, so one digest serves
#: both settings
REFERENCE_SEEN = "5b62b83cfaa5879dbc99758d69e171d5"

#: the ``Kernel`` methods that are not syscalls; every other public
#: method is one (the set ``bench/tracer.py`` wraps as ``KERNEL_SYSCALLS``)
NOT_SYSCALLS = frozenset({
    "mount", "umount", "remount", "mounts", "mount_at",
    "invalidate_entry", "invalidate_inode", "invalidate_mount_caches",
})
SYSCALLS = tuple(sorted(
    name for name, value in vars(Kernel).items()
    if isinstance(value, types.FunctionType) and not name.startswith("_")
    and name not in NOT_SYSCALLS
))


def seen_digest(seen) -> str:
    return hashlib.md5(repr(sorted(seen.items())).encode()).hexdigest()


def transport_counts(mcfs):
    """Summed public counters: syscalls, round trips, handler calls."""
    return (sum(fut.kernel.syscall_count for fut in mcfs.futs),
            sum(fut.verifs.connection.requests_sent for fut in mcfs.futs),
            sum(fut.verifs.server.requests_handled for fut in mcfs.futs))


# ------------------------------------------------------------ count pin --
class TestCountPin:
    @pytest.mark.parametrize("por", [False, True], ids=["full", "por"])
    def test_depth4_counts_are_unchanged(self, por, tmp_path):
        mcfs = VERIFS_PAIR.build_mcfs()
        before = transport_counts(mcfs)
        state_file = str(tmp_path / "s.json")
        result = mcfs.run_dfs(max_depth=4, por=por, state_file=state_file)
        stats = result.stats
        moved = [after - first for after, first
                 in zip(transport_counts(mcfs), before)]
        assert stats.stopped_reason == "state space exhausted"
        assert (*moved, result.sim_time, stats.unique_states,
                stats.transitions, stats.checkpoints, stats.restores,
                stats.por_pruned, stats.memo_hits) == PINS[por]
        seen = load_checker_state(state_file).visited.export_seen()
        assert seen_digest(seen) == REFERENCE_SEEN


# --------------------------------------------------------- schedule pins --
def md5_json(value) -> str:
    return hashlib.md5(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


#: the runs whose every event is pinned: VeriFS1 vs VeriFS2 DFS to
#: exhaustion and cut by each budget, one seeded-bug hunt, one walk
SCHEDULE_RUNS = {
    "d4-full": lambda: VERIFS_PAIR.build_mcfs().run_dfs(max_depth=4),
    "d4-por": lambda: VERIFS_PAIR.build_mcfs().run_dfs(max_depth=4, por=True),
    "d3-por-ops137": lambda: VERIFS_PAIR.build_mcfs().run_dfs(
        max_depth=3, por=True, max_operations=137),
    "d3-por-states90": lambda: VERIFS_PAIR.build_mcfs().run_dfs(
        max_depth=3, por=True, max_unique_states=90),
    "hunt-write-hole-stale": lambda: hunt_spec("write-hole-stale").run(),
    "random-400-seed3": lambda: VERIFS_PAIR.build_mcfs().run_random(
        max_operations=400, seed=3),
}

#: md5 of the recorded schedule (``DiscrepancyReport``'s event codec),
#: of the (state, depth) expansion sequence and of ``stats.to_dict()``;
#: the three ``por`` rows as re-recorded when name symmetry joined it
SCHEDULE_PINS = {
    "d4-full": ("1c41919e83d9a014e1fb6b5362e2b784",
                "cace7238b2c2597c910f3d28dd7cc706",
                "8a9012c3241ffde40a3a4de8eb6b825c"),
    "d4-por": ("37633a41a9731b87e7bfb7452e788a7e",
               "481b32e92ab0a87d16cfae280ebf44cc",
               "b8ebf7fb9f956967fb5a0371ad6c240a"),
    "d3-por-ops137": ("df690204e2674437007e6160fea1bc89",
                      "e08543ebf8b16e69ba857934975ea838",
                      "ff511e4511ea4e8ad8fc48c79eea26b5"),
    "d3-por-states90": ("1f9810fef78e1f82a7884aae4320e1aa",
                        "57aa4e65570d3da4642fed51242526e5",
                        "9f13312ddba020bff4a97faed5cd44c7"),
    "hunt-write-hole-stale": ("dfa4d008c7ea2c3e838222c65ba09578",
                              "3ae26c85cc8e83e469544f1a4eea2f34",
                              "06faec8997454e6bfb83c5059b2f1644"),
    "random-400-seed3": ("86e7bbb541002268906aec7eb49fbbce",
                         "d751713988987e9331980363e24189ce",
                         "4c82d36c121b4b9acc5334567f085025"),
}


@pytest.fixture
def explorers(monkeypatch):
    """Every Explorer whose run_dfs/run_random was called, in order."""
    ran = []
    for method in ("run_dfs", "run_random"):
        def wrapper(self, *args, _real=getattr(Explorer, method), **kwargs):
            ran.append(self)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Explorer, method, wrapper)
    return ran


class TestSchedulePins:
    @pytest.mark.parametrize("run", sorted(SCHEDULE_RUNS))
    def test_every_event_is_unchanged(self, run, explorers, expansions):
        result = SCHEDULE_RUNS[run]()
        schedule = (result.report.schedule if result.report is not None
                    else explorers[-1].recorder.schedule())
        found = (md5_json([schedule_event_to_dict(e) for e in schedule]),
                 md5_json(expansions), md5_json(result.stats.to_dict()))
        assert (result.report is not None) == run.startswith("hunt")
        assert found == SCHEDULE_PINS[run]


# ------------------------------------------------------- tracer contract --
def count_calls(monkeypatch, cls, methods, counter, key):
    """Wrap ``cls``'s ``methods`` on the class that defines each (as
    ``bench/tracer.py`` patches), counting every call under ``key``."""
    for method in methods:
        owner = next(klass for klass in cls.__mro__ if method in vars(klass))
        original = vars(owner)[method]

        def wrapper(*args, _original=original, **kwargs):
            counter[key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, method, wrapper)


class TestTracerContract:
    def test_bench_syscall_list_is_the_kernel_surface(self):
        assert set(SYSCALLS) >= {"open", "close", "pread", "lstat", "ioctl",
                                 "getdents", "getdents_attrs", "listxattr"}
        assert "mount" not in SYSCALLS

    @pytest.mark.parametrize("por", [False, True], ids=["full", "por"])
    def test_wrappers_installed_after_build_see_every_call(self, por,
                                                           monkeypatch):
        mcfs = VERIFS_PAIR.build_mcfs()
        engine = mcfs.engine()
        mcfs._prepare()  # harness fully built before any wrapper exists
        seen = Counter()
        count_calls(monkeypatch, FuseConnection, ["send_dict"], seen, "send")
        count_calls(monkeypatch, FuseServerProcess, ["handle"], seen,
                    "handle")
        count_calls(monkeypatch, Kernel, SYSCALLS, seen, "syscall")
        count_calls(monkeypatch, FilesystemUnderTest, ["entries_digests"],
                    seen, "digest")
        count_calls(monkeypatch, OperationCatalog, ["execute"], seen,
                    "execute")
        syscalls, sent, handled = transport_counts(mcfs)
        checks = engine.checker.state_checks
        executed = engine.operations_executed

        result = mcfs.run_dfs(max_depth=3, por=por)

        assert result.stats.stopped_reason == "state space exhausted"
        futs = len(mcfs.futs)
        moved = transport_counts(mcfs)
        assert seen["syscall"] == moved[0] - syscalls > 0
        assert seen["send"] == moved[1] - sent > 0
        assert seen["handle"] == moved[2] - handled == seen["send"]
        assert seen["digest"] == futs * (engine.checker.state_checks
                                         - checks) > 0
        assert seen["execute"] == futs * (engine.operations_executed
                                          - executed) > 0


# ----------------------------------------------------- profiler contract --
class TestProfilerContract:
    BUCKETS = ("abstraction_syscall", "abstraction_hash", "snapshot_restore")

    def run(self, profile: bool, tmp_path):
        mcfs = VERIFS_PAIR.build_mcfs()
        mcfs.options.profile = profile
        state_file = str(tmp_path / f"profile-{int(profile)}.json")
        result = mcfs.run_dfs(max_depth=3, por=True, state_file=state_file)
        table = load_checker_state(state_file).visited
        stats = result.stats
        found = (table.visited_fingerprint(), result.sim_time,
                 stats.unique_states, stats.transitions, stats.checkpoints,
                 stats.restores, stats.por_pruned, stats.memo_hits,
                 transport_counts(mcfs))
        return result, found

    def test_profile_charges_the_moved_hooks_and_finds_the_same(self,
                                                                tmp_path):
        plain, found_plain = self.run(False, tmp_path)
        profiled, found_profiled = self.run(True, tmp_path)
        assert plain.cost_profile is None
        profile = profiled.cost_profile
        for bucket in self.BUCKETS:
            assert profile.calls[bucket] > 0, bucket
            assert profile.seconds[bucket] > 0, bucket
        assert profile.states == profiled.stats.transitions + 1
        assert found_profiled == found_plain
