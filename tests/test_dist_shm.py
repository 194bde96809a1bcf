"""The shared-memory data plane: determinism matrix + crash safety.

The shm plane reroutes visited-state traffic from coordinator RPC into
single-writer shared-memory segments.  That must never change
*what a campaign finds* -- so the load-bearing properties are:

* **plane equivalence** -- byte-identical visited-set fingerprints and
  merged results between the shm and RPC planes, for every worker
  count, ship cadence, and store kind;
* **crash safety** -- a SIGKILLed worker's segment survives in the
  coordinator's address space, recovery reproduces the baseline result,
  and no ``/dev/shm`` segment outlives the run;
* **wire hygiene** -- raw segment handles never cross the pipe (workers
  reattach by name), and record batches are fire-and-forget: the only
  message a worker ever waits for is the answer to its work request.
"""

import dataclasses
import multiprocessing
import os
import threading

import pytest

from repro.dist import CheckSpec, DistributedChecker, WorkerConfig
from repro.dist.protocol import (
    Hello,
    NoMoreWork,
    RecordBatch,
    UnitDone,
    WorkGrant,
    WorkRequest,
)
from repro.dist.worker import worker_main
from repro.mc.shardmem import (
    ShardFull,
    ShardLayout,
    ShardSegment,
    shared_memory_available,
)

SHM_SUPPORTED = (shared_memory_available()
                 and "fork" in multiprocessing.get_all_start_methods())

needs_shm = pytest.mark.skipif(
    not SHM_SUPPORTED,
    reason="needs multiprocessing.shared_memory and the fork start method")

SPEC = CheckSpec(
    filesystems=("verifs1", "verifs2"),
    units=4,
    base_seed=7,
    unit_operations=60,
    max_depth=6,
)

STORES = ("exact", "hc", "bitstate")

#: chaos ticks must fire well inside a 60-op unit
CHAOS_CONFIG = WorkerConfig(heartbeat_operations=20, batch_size=8)


def run_fleet(plane, workers, store="exact", **kwargs):
    spec = dataclasses.replace(SPEC, data_plane=plane, state_store=store)
    return DistributedChecker(spec, workers=workers, **kwargs).run()


def outcome(dist):
    """Everything that must be invariant across planes and fleets."""
    return (
        dist.visited_states,
        dist.total_operations,
        dist.discrepancy_signature(),
        dist.table.visited_fingerprint(),
        sorted((unit.index, unit.operations, unit.unique_states)
               for unit in dist.unit_results),
    )


@pytest.fixture(scope="module")
def rpc_baselines():
    """The workers=1 RPC reference run, one per store kind."""
    return {store: run_fleet("rpc", workers=1, store=store)
            for store in STORES}


# ------------------------------------------------------ determinism matrix --
@needs_shm
class TestPlaneEquivalence:
    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize("batch", (1, 2, 4))
    def test_shm_matches_rpc_baseline(self, rpc_baselines, store, workers,
                                      batch):
        """``batch`` is the ship cadence: how many locally-new records a
        worker buffers before publishing them to its segment.  It moves
        *when* keys land, never which ones."""
        fleet = run_fleet("shm", workers=workers, store=store,
                          config=WorkerConfig(batch_size=batch))
        assert fleet.data_plane == "shm"
        assert outcome(fleet) == outcome(rpc_baselines[store])

    def test_auto_resolves_to_shm_here(self):
        fleet = run_fleet("auto", workers=2)
        assert fleet.data_plane == "shm"


class TestPlaneGating:
    def test_tiered_store_cannot_force_shm(self):
        # the tiered store is retired: naming it is refused by the spec
        # grammar before any plane is picked
        with pytest.raises(ValueError, match="expected exact"):
            run_fleet("shm", workers=2, store="tiered")

    def test_rpc_can_always_be_forced(self, rpc_baselines):
        fleet = run_fleet("rpc", workers=2)
        assert fleet.data_plane == "rpc"
        assert outcome(fleet) == outcome(rpc_baselines["exact"])

    @pytest.mark.parametrize("store", STORES)
    def test_fleet_of_zero_matches_on_any_plane(self, rpc_baselines, store):
        """``workers=0`` runs every unit in this process: whatever plane
        the spec names there is no process, no pipe and no segment."""
        class NoMultiprocessing:
            def __getattr__(self, name):
                raise AssertionError(f"a fleet of zero used {name}")

        before = set(os.listdir("/dev/shm")) if SHM_SUPPORTED else set()
        for plane in ("shm", "rpc", "auto"):
            inline = run_fleet(plane, workers=0, store=store,
                               mp_context=NoMultiprocessing())
            assert outcome(inline) == outcome(rpc_baselines[store])
            assert inline.inline_units == SPEC.units
            assert inline.worker_summaries == []
        if SHM_SUPPORTED:
            assert set(os.listdir("/dev/shm")) == before


# ----------------------------------------------------------- crash safety --
@needs_shm
class TestCrashSafety:
    def _shm_entries(self):
        try:
            return set(os.listdir("/dev/shm"))
        except OSError:
            return set()

    def test_sigkill_recovery_matches_baseline_and_leaks_nothing(
            self, rpc_baselines):
        before = self._shm_entries()
        fleet = run_fleet(
            "shm", workers=2, config=CHAOS_CONFIG,
            chaos_kill_after={"w1": 50},  # SIGKILL mid-unit
            lease_timeout=3.0,
        )
        assert outcome(fleet) == outcome(rpc_baselines["exact"])
        assert fleet.recovered_units >= 1
        leaked = self._shm_entries() - before
        assert not leaked, f"segments outlived the run: {sorted(leaked)}"

    def test_clean_run_leaks_nothing(self):
        before = self._shm_entries()
        run_fleet("shm", workers=2)
        leaked = self._shm_entries() - before
        assert not leaked, f"segments outlived the run: {sorted(leaked)}"


# ------------------------------------------------------ handshake protocol --
class TestGrantHandshake:
    def test_worker_waits_for_nothing_but_its_grant(self):
        """Record batches are fire-and-forget.  A coordinator that never
        says a word about them still gets the unit done, and sees exactly
        one WorkRequest per grant -- a second one would have it re-lease
        over a live unit."""
        parent, child = multiprocessing.Pipe(duplex=True)
        spec = dataclasses.replace(SPEC, data_plane="rpc")
        unit = spec.work_units()[0]
        worker = threading.Thread(
            target=worker_main,
            args=(child, spec, "w0", WorkerConfig(batch_size=1)),
            daemon=True)
        worker.start()
        try:
            assert isinstance(parent.recv(), Hello)
            assert isinstance(parent.recv(), WorkRequest)
            parent.send(WorkGrant(unit))
            requests = batches = 0
            while True:
                message = parent.recv()
                if isinstance(message, WorkRequest):
                    requests += 1
                elif isinstance(message, RecordBatch):
                    batches += 1  # ... and deliberately no answer
                elif isinstance(message, UnitDone):
                    assert message.result.index == unit.index
                    break
            assert batches > 0
            assert requests == 0, "the worker asked twice for one grant"
            assert isinstance(parent.recv(), WorkRequest)
            parent.send(NoMoreWork())
            worker.join(timeout=30)
            assert not worker.is_alive()
        finally:
            parent.close()


# ----------------------------------------------- segment primitives (no shm) --
class TestShardSegment:
    def layout(self, slots=32):
        return ShardLayout(slots=slots, key_bytes=16)

    def segment(self, layout):
        return ShardSegment(layout, buffer=bytearray(layout.segment_bytes))

    def test_insert_then_contains(self):
        segment = self.segment(self.layout())
        is_new, expand = segment.insert(int("af" * 16, 16), depth=2)
        assert (is_new, expand) == (True, True)
        assert segment.depth_of(int("af" * 16, 16)) == 2
        assert segment.depth_of(int("be" * 16, 16)) is None

    def test_shallower_revisit_reexpands(self):
        segment = self.segment(self.layout())
        key = int("af" * 16, 16)
        segment.insert(key, depth=5)
        assert segment.insert(key, depth=7) == (False, False)
        is_new, expand = segment.insert(key, depth=2)
        assert (is_new, expand) == (False, True)
        assert segment.depth_of(key) == 2

    def test_full_shard_raises(self):
        segment = self.segment(self.layout(slots=8))
        with pytest.raises(ShardFull):
            for value in range(64):
                segment.insert(value, depth=0)
        assert segment.depth_of(99) is None  # a full probe is an absence

    def test_entries_survive_reattach_via_buffer(self):
        layout = self.layout()
        backing = bytearray(layout.segment_bytes)
        writer = ShardSegment(layout, buffer=backing)
        keys = list(range(1, 6))
        for depth, key in enumerate(keys):
            writer.insert(key, depth)
        reader = ShardSegment(layout, buffer=backing)
        assert sorted(reader.entries()) == list(zip(keys, range(5)))
