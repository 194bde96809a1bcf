"""Mechanism-only changes, held to their counts.

A change to how the message, syscall, digest or search path is *built*
(positional FUSE dispatch, cheaper value objects, a flatter digest chain,
per-run commutation sets) must leave every count the simulation produces
exactly where it was.  These tests make that executable:

* the count pin runs the VeriFS1 vs VeriFS2 ioctl DFS at depth 4 and
  asserts the syscall, round-trip, handler and search counts, the
  simulated time and the visited ``{state: depth}`` map, all as recorded
  before the mechanism work;
* the tracer contract installs class-level counting wrappers the way
  ``bench/tracer.py`` does *after* the harness is built and checks that
  every wrapper saw exactly what the matching public counter saw -- an
  optimisation that binds a bound method at construction time would go
  dark in traced runs and fail here;
* the profiler contract checks that ``--profile`` still charges the
  digest and snapshot buckets and changes nothing a run finds.
"""

import hashlib
import types
from collections import Counter

import pytest

from repro.core.futs import FilesystemUnderTest
from repro.core.ops import OperationCatalog
from repro.dist.spec import CheckSpec
from repro.fuse.connection import FuseConnection
from repro.fuse.server import FuseServerProcess
from repro.kernel.kernel import Kernel
from repro.mc.persistence import load_checker_state

VERIFS_PAIR = CheckSpec(filesystems=("verifs1", "verifs2"), strategy="ioctl")

#: depth-4 counts of ``VERIFS_PAIR.build_mcfs().run_dfs`` by ``por``:
#: syscalls, FUSE round trips, FUSE handler calls, simulated seconds,
#: unique states, transitions, checkpoints, restores, slept, memo hits
PINS = {
    False: (134244, 120284, 120284, 1.921603600006507,
            1305, 12779, 6765, 6765, 0, 2302),
    True: (66796, 63068, 63068, 1.0429768000002106,
           1305, 7188, 3812, 3812, 6491, 1402),
}

#: md5 of ``repr(sorted(map.items()))`` for the naive reference DFS of
#: ``tests/test_dfs_memo.py`` (``reference_dfs``) at depth 4; POR keeps
#: the visited set, so one digest serves both settings
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
