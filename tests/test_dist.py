"""repro.dist: distributed exploration across a real multiprocessing fleet.

The load-bearing properties under test:

* **determinism** -- the merged result (visited-state count, operation
  total, discrepancy signature) is identical for any worker count;
* **fault tolerance** -- SIGKILLing a worker mid-run re-issues its
  leased unit and the final result is still identical;
* **one hand-off per unit** -- a finished unit's result carries every
  state it found, packed once; a fleet that sends them over its pipes
  ends with exactly what a fleet of zero (every unit in this process,
  nothing forked) ends with, for every store kind and heartbeat cadence,
  and the table's duplicate hits are shipped minus stored.
"""

import dataclasses
import json
import multiprocessing
import shutil
import threading
from pathlib import Path

import pytest

from repro.core.mcfs import MCFSResult
from repro.core.report import RunSummary
from repro.dist import (
    CheckSpec,
    DistributedChecker,
    WorkerConfig,
    unique_labels,
)
from repro.dist.coordinator import DistResult
from repro.dist.protocol import (
    Heartbeat,
    NoMoreWork,
    UnitDone,
    WorkGrant,
    WorkRequest,
)
from repro.dist.spec import SEED_STRIDE
from repro.dist.worker import run_unit, worker_main
from repro.mc.hashtable import VisitedStateTable
from repro.mc.persistence import load_checker_state, save_checker_state
from repro.mc.records import StoreFormatError
from repro.mc.statestore import make_store
from repro.util.hashing import md5_hex

SPEC = CheckSpec(
    filesystems=("verifs1", "verifs2"),
    units=4,
    base_seed=1,
    unit_operations=100,
    max_depth=8,
)

#: a chunkier spec with a known bug injected into the last file system
BUG_SPEC = dataclasses.replace(
    SPEC, units=6, unit_operations=150, verifs_bugs=("write-hole-stale",))

#: chaos tests need ticks to fire well inside a 100-op unit
CHAOS_CONFIG = WorkerConfig(heartbeat_operations=20)

#: SPEC submitted with ``workers=2``, one slice run, then paused and
#: spooled by a daemon whose units still reported ``suppressed_hashes``
OLD_SPOOL = (Path(__file__).resolve().parent / "data"
             / "paused-spool-with-suppressed-hashes.json")


#: three well-formed state hashes and the record keys an exact store
#: ships for them (the whole digest as an integer)
A, B, C = (md5_hex(name) for name in "abc")
KA, KB, KC = (int(state_hash, 16) for state_hash in (A, B, C))


def fingerprint(dist):
    """Everything that must be invariant across fleets and crashes."""
    return (
        dist.visited_states,
        dist.total_operations,
        dist.discrepancy_signature(),
        dist.table.visited_fingerprint(),
        sorted((unit.index, unit.operations, unit.unique_states)
               for unit in dist.unit_results),
    )


@pytest.fixture(scope="module")
def baseline():
    """The workers=1 reference run every other fleet must reproduce."""
    return DistributedChecker(SPEC, workers=1).run()


# ------------------------------------------------------------------ spec --
class TestCheckSpec:
    def test_work_units_are_deterministic(self):
        assert SPEC.work_units() == SPEC.work_units()

    def test_units_diversified_like_swarm(self):
        units = SPEC.work_units()
        assert [unit.seed for unit in units] == [
            1 + index * SEED_STRIDE for index in range(4)]
        assert len({unit.max_depth for unit in units}) > 1

    def test_unit_count_fixed_by_spec_not_fleet(self):
        # the partition is a property of the spec alone
        assert len(SPEC.work_units()) == SPEC.units

    def test_rejects_single_filesystem(self):
        with pytest.raises(ValueError):
            CheckSpec(filesystems=("verifs1",))

    def test_rejects_unknown_filesystem(self):
        with pytest.raises(ValueError):
            CheckSpec(filesystems=("verifs1", "nope"))

    def test_rejects_zero_units(self):
        with pytest.raises(ValueError):
            CheckSpec(filesystems=("verifs1", "verifs2"), units=0)

    def test_rejects_unknown_bug(self):
        with pytest.raises(ValueError, match="unknown bug 'nope'"):
            CheckSpec(filesystems=("verifs1", "verifs2"), verifs_bugs=("nope",))

    def test_rejects_a_bug_the_last_fs_cannot_carry(self):
        with pytest.raises(ValueError, match="must be a verifs"):
            CheckSpec(filesystems=("verifs1", "ext4"),
                      verifs_bugs=("write-hole-stale",))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            CheckSpec(filesystems=("verifs1", "verifs2"), mode="bfs")

    def test_a_dfs_spec_has_no_work_units(self):
        with pytest.raises(ValueError, match="--mode random"):
            CheckSpec(filesystems=("verifs1", "verifs2"),
                      mode="dfs").work_units()

    def test_run_is_the_searches_it_names(self):
        dfs = CheckSpec(filesystems=("verifs1", "verifs2"), mode="dfs",
                        depth=2, por=True)
        expected = dfs.build_mcfs().run_dfs(max_depth=2, por=True)
        assert dfs.run().stats.to_dict() == expected.stats.to_dict()
        walk = CheckSpec(filesystems=("verifs1", "verifs2"), base_seed=3,
                         max_ops=120, coverage=True)
        result = walk.run()
        mcfs = walk.build_mcfs()
        expected = mcfs.run_random(max_operations=120, seed=3)
        assert result.stats.to_dict() == expected.stats.to_dict()
        assert result.coverage.render() == mcfs.coverage_report().render()

    def test_unique_labels(self):
        assert unique_labels(["ext4", "ext4", "ext4"]) == [
            "ext4", "ext42", "ext43"]

    def test_build_mcfs_attaches_spec(self):
        mcfs = SPEC.build_mcfs()
        assert mcfs.spec is SPEC
        assert len(mcfs.futs) == 2


# --------------------------------------------------------------- service --
class TestVisitedStateService:
    """The shared visited set a campaign's workers feed: the campaign's
    one table, visited a record batch at a time (no wrapper around
    it)."""

    def test_insert_batch_reports_new_flags(self):
        table = VisitedStateTable()
        assert table.visit_many([(KA, 1), (KB, 2)]) == [True, True]
        assert table.visit_many([(KA, 1), (KC, 3)]) == [False, True]
        assert len(table) == 3
        assert DistResult(workers=0, table=table).cross_worker_duplicates \
            == table.stats.duplicate_hits == 1
        assert A in table  # record keys land as state hashes

    def test_duplicates_count_every_known_record_even_with_no_fleet(self):
        """``cross_worker_duplicates`` counts each shipped record the
        table already held, whoever shipped it: a fleet of zero, where
        no other worker exists, still reports shipped minus stored."""
        dist = DistributedChecker(SPEC, workers=0).run()
        shipped = sum(unit.shipped_hashes for unit in dist.unit_results)
        assert dist.cross_worker_duplicates == shipped - dist.visited_states
        assert dist.cross_worker_duplicates > 0


# ----------------------------------------------------------- persistence --
class TestPersistenceV2:
    """Exact-table snapshots (the class name predates the single
    format; refusal of old versions is pinned in test_statestore)."""

    def test_roundtrip_carries_provenance(self, tmp_path):
        """A campaign snapshot says whose work it covers: the spec and
        each finished unit's record (its own seed and worker)."""
        path = str(tmp_path / "state.json")
        table = VisitedStateTable()
        table.visit(A, 2)
        table.visit(A, 5)  # duplicate hit
        record = MCFSResult.from_dict({"index": 1, "seed": 42,
                                       "worker_id": "w1", "operations": 7})
        save_checker_state(path, table, operations_completed=7, runs=3,
                           spec=SPEC, unit_results=[record])
        snapshot = load_checker_state(path, store=SPEC.state_store,
                                      seed=SPEC.base_seed, spec=SPEC)
        assert [unit.to_dict() for unit in snapshot.unit_results] == \
            [record.to_dict()]
        assert snapshot.operations_completed == 7
        assert snapshot.runs == 3
        assert snapshot.visited.export_seen() == {A: 2}
        assert snapshot.visited.stats.duplicate_hits == 1

    def test_unsupported_version_names_path(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"version": 99, "buckets": 64, "seen": {}}))
        with pytest.raises(StoreFormatError, match="state.json.*version 99"):
            load_checker_state(str(path))

    def test_export_seen_returns_a_copy(self):
        table = VisitedStateTable()
        table.visit("a", 1)
        seen = table.export_seen()
        seen["b"] = 2
        assert len(table) == 1


# ----------------------------------------------------------- determinism --
class TestDistributedDeterminism:
    def test_single_worker_completes_all_units(self, baseline):
        assert len(baseline.unit_results) == SPEC.units
        assert baseline.visited_states == len(baseline.table)
        assert baseline.total_operations == SPEC.units * SPEC.unit_operations

    def test_worker_count_does_not_change_the_result(self, baseline):
        for workers in (0, 3):  # 0: every unit inline, no process at all
            fleet = DistributedChecker(SPEC, workers=workers).run()
            assert fingerprint(fleet) == fingerprint(baseline)
            assert fleet.inline_units == (0 if workers else SPEC.units)

    def test_modeled_speedup_uses_static_lanes(self, baseline):
        fleet = DistributedChecker(SPEC, workers=4).run()
        assert fleet.modeled_parallel_time < fleet.sequential_sim_time
        assert fleet.speedup > 1.0
        # sequential compute is fleet-invariant
        assert fleet.sequential_sim_time == pytest.approx(
            baseline.sequential_sim_time)

    def test_bug_found_identically_at_any_fleet_size(self):
        solo = DistributedChecker(BUG_SPEC, workers=1).run()
        assert solo.found_discrepancy
        # units after the first violation still ran: no global early stop
        assert len(solo.unit_results) == BUG_SPEC.units
        for workers in (0, 3):
            fleet = DistributedChecker(BUG_SPEC, workers=workers).run()
            assert fingerprint(fleet) == fingerprint(solo)

    def test_rejects_empty_fleet(self):
        # zero workers is the inline runner; less than none is an error
        with pytest.raises(ValueError):
            DistributedChecker(SPEC, workers=-1)

    def test_an_fsck_find_crosses_the_pipe(self, monkeypatch, tmp_path):
        """A unit the fsck oracle stops holds an FsckCorruptionError,
        which does not unpickle; the fleet still reports the find, as
        the inline runner does, and each unit's trail replays."""
        from repro.analysis import oracle
        from repro.analysis.findings import Finding
        from repro.trail import Trail, replay_trail

        planted = Finding("fsck.vfs", "planted", "every tree fails")
        # the workers fork after the patch, so they run it too
        monkeypatch.setattr(oracle, "check_mounted", lambda fs: [planted])
        spec = dataclasses.replace(SPEC, units=2, fsck_every=3)
        fleet = DistributedChecker(spec, workers=2,
                                   trail_dir=str(tmp_path)).run()
        inline = DistributedChecker(spec, workers=0).run()
        assert [report.kind for report in fleet.discrepancies] == \
            ["corruption"] * 2
        assert [report.findings for report in fleet.discrepancies] == \
            [[planted] * 2] * 2
        assert fingerprint(fleet) == fingerprint(inline)
        assert len(fleet.trail_paths) == 2
        for path in fleet.trail_paths:
            assert replay_trail(Trail.load(path)).confirmed

    def test_a_re_run_unit_replaces_its_own_trail(self, tmp_path):
        """A unit run twice (its lease expired after it wrote its trail)
        writes one file, the one its record names: the name is the
        unit's spec and seed, not the first free one."""
        unit = BUG_SPEC.work_units()[2]
        paths = [run_unit(BUG_SPEC, unit, "w0", WorkerConfig(),
                          trail_dir=str(tmp_path)).result.trail_path
                 for _ in range(2)]
        assert paths[0] == paths[1]
        assert [str(path) for path in tmp_path.iterdir()] == [paths[1]]


# ------------------------------------------------------- fault tolerance --
class TestFaultTolerance:
    @pytest.mark.parametrize("store", ("exact", "hc", "bitstate"))
    def test_sigkilled_worker_costs_nothing_but_time(self, store, baseline):
        """Recovery re-runs the lost unit and merges nothing else: the
        dead worker's unit published nothing, and its re-run ships all
        of it, for every store kind."""
        spec = dataclasses.replace(SPEC, state_store=store)
        if store != SPEC.state_store:
            baseline = DistributedChecker(spec, workers=1).run()
        fleet = DistributedChecker(
            spec, workers=2, config=CHAOS_CONFIG,
            chaos_kill_after={"w1": 50},  # SIGKILL mid-unit
        ).run()
        assert fingerprint(fleet) == fingerprint(baseline)
        assert fleet.recovered_units >= 1
        dead = {s.worker_id: s for s in fleet.worker_summaries}["w1"]
        assert not dead.alive_at_end
        if store == "exact":
            # nothing half-shipped by the killed unit reached the table
            shipped = sum(unit.shipped_hashes for unit in fleet.unit_results)
            assert fleet.cross_worker_duplicates == \
                shipped - fleet.visited_states

    def test_whole_fleet_dead_finishes_inline(self, baseline):
        beats = []
        fleet = DistributedChecker(
            SPEC, workers=1, config=CHAOS_CONFIG,
            chaos_kill_after={"w0": 50},
            on_progress=lambda unit, operations: beats.append(unit),
        ).run()
        assert fingerprint(fleet) == fingerprint(baseline)
        assert fleet.inline_units >= 1
        # units finished inline heartbeat like leased ones: the last
        # unit can only have run after the one worker died
        assert beats.count(SPEC.units - 1) == \
            SPEC.unit_operations // CHAOS_CONFIG.heartbeat_operations

    def test_a_given_table_and_a_state_file_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            DistributedChecker(SPEC, workers=0, table=VisitedStateTable(),
                               state_file=str(tmp_path / "state.json"))

    def test_state_file_resumes_across_campaigns(self, tmp_path, baseline):
        path = str(tmp_path / "dist-state.json")
        first = DistributedChecker(SPEC, workers=2, state_file=path).run()
        assert fingerprint(first) == fingerprint(baseline)
        snapshot = load_checker_state(path)
        assert snapshot.runs == 1
        assert [unit.index for unit in snapshot.unit_results] == \
            list(range(SPEC.units))
        assert len(snapshot.visited) == first.visited_states
        second = DistributedChecker(SPEC, workers=2, state_file=path).run()
        # every unit has a record: the second campaign runs none and
        # returns the first one's records, adding nothing
        assert fingerprint(second) == fingerprint(first)
        assert second.resumed_units == SPEC.units
        assert sum(summary.units_completed
                   for summary in second.worker_summaries) == 0
        assert RunSummary.from_campaign(second).unique_states == 0
        assert load_checker_state(path).runs == 2

    def test_an_interrupted_campaign_resumes_where_it_stopped(
            self, tmp_path, monkeypatch, baseline):
        """Each finished unit rewrites the state file, so a campaign
        cut after its second unit resumes running units 2-3 only, to
        the one-shot result."""
        from repro.dist import coordinator

        path = str(tmp_path / "dist-state.json")
        ran = []

        def run_unit_until(stop):
            def run(spec, unit, *args, **kwargs):
                if unit.index == stop:
                    raise RuntimeError("interrupted")
                ran.append(unit.index)
                return run_unit(spec, unit, *args, **kwargs)
            return run

        monkeypatch.setattr(coordinator, "run_unit", run_unit_until(2))
        with pytest.raises(RuntimeError, match="interrupted"):
            DistributedChecker(SPEC, workers=0, state_file=path).run()
        assert [unit.index for unit in
                load_checker_state(path).unit_results] == [0, 1]
        monkeypatch.setattr(coordinator, "run_unit", run_unit_until(None))
        ran.clear()
        resumed = DistributedChecker(SPEC, workers=0, state_file=path).run()
        assert ran == [2, 3]
        assert resumed.resumed_units == 2
        assert fingerprint(resumed) == fingerprint(baseline)
        assert resumed.table.visited_fingerprint() == \
            baseline.table.visited_fingerprint()

    def test_server_pause_restart_resume_matches_one_shot(self, tmp_path,
                                                          baseline):
        """The campaign server's pause/resume rides the same unit
        determinism the crash tests above pin: pausing mid-campaign,
        losing the engine entirely, and resuming from its spool explores
        the identical state set as an uninterrupted run."""
        from repro.server import CampaignEngine, EngineConfig, SubmitRequest

        spool = str(tmp_path / "spool")
        engine = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        job = engine.submit(SubmitRequest(spec=SPEC))
        engine.step()  # one unit lands
        engine.pause(job.job_id)
        engine.step()  # the pause snapshot and unit results are spooled
        assert engine.job(job.job_id).state == "paused"

        reborn = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        reborn.resume(job.job_id)
        reborn.run_until_idle()
        assert fingerprint(reborn.result(job.job_id)) == \
            fingerprint(baseline)

    def test_a_spool_from_before_the_one_hand_off_resumes(self, tmp_path,
                                                          baseline):
        """A job spooled paused by a daemon whose units reported
        ``suppressed_hashes`` (the per-worker LRU's count) and shipped
        their states mid-unit resumes here to the same state set."""
        from repro.server import CampaignEngine, EngineConfig

        spool = tmp_path / "spool"
        spool.mkdir()
        shutil.copy(OLD_SPOOL, spool / "job-0001.json")
        document = json.loads(OLD_SPOOL.read_text())
        assert document["descriptor"]["state"] == "paused"
        assert all("suppressed_hashes" in unit
                   for unit in document["unit_results"])
        engine = CampaignEngine(EngineConfig(slots=1, spool_dir=str(spool)))
        engine.resume("job-0001")
        engine.run_until_idle()
        assert fingerprint(engine.result("job-0001")) == \
            fingerprint(baseline)

    def test_remaining_units_are_those_without_a_result(self, tmp_path,
                                                        baseline):
        """A reloaded job runs the spec's units that have no result in
        its spool; the ``pending`` list older spools carry is not read,
        so a malformed one cannot break the load."""
        from repro.server import CampaignEngine, EngineConfig

        document = json.loads(OLD_SPOOL.read_text())
        assert document["pending"] == [2, 3]
        assert [unit["index"] for unit in document["unit_results"]] == [0, 1]
        document["pending"] = [[2], 3]
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "job-0001.json").write_text(json.dumps(document))
        engine = CampaignEngine(EngineConfig(slots=1, spool_dir=str(spool)))
        engine.resume("job-0001")
        engine.run_until_idle()
        result = engine.result("job-0001")
        assert result.table.visited_fingerprint() == \
            baseline.table.visited_fingerprint()
        assert fingerprint(result) == fingerprint(baseline)

    def test_a_unit_result_index_must_be_an_integer(self, tmp_path):
        """A unit list a resume would mis-skip units on refuses the
        daemon's start: an index that is not an integer, repeats or
        names no unit of the spec, a record that is not an object, a
        list that is not one."""
        from repro.server import CampaignEngine, EngineConfig

        def damaged(units):
            units[0]["index"] = [0]
            return units

        for number, (damage, message) in enumerate([
                (damaged, "unit result index"),
                (lambda units: units + units[:1], "index 0 repeats"),
                (lambda units: [{**units[0], "index": SPEC.units}],
                 f"index {SPEC.units} is outside"),
                (lambda units: units + [7], "7 is not an object"),
                (lambda units: {"0": units[0]}, "not a list")]):
            document = json.loads(OLD_SPOOL.read_text())
            document["unit_results"] = damage(document["unit_results"])
            spool = tmp_path / f"spool-{number}"
            spool.mkdir()
            (spool / "job-0001.json").write_text(json.dumps(document))
            with pytest.raises(StoreFormatError, match=message):
                CampaignEngine(EngineConfig(slots=1, spool_dir=str(spool)))


# -------------------------------------------------------- one data plane --
FLEET_STORES = ("exact", "hc", "bitstate")


class NoMultiprocessing:
    """An ``mp_context`` that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"a fleet of zero used {name}")


@pytest.fixture(scope="module")
def fleets_of_zero():
    """The ``workers=0`` run of every store kind: no process, no pipe."""
    return {store: DistributedChecker(
        dataclasses.replace(SPEC, state_store=store), workers=0,
        mp_context=NoMultiprocessing()).run() for store in FLEET_STORES}


class TestOneDataPlane:
    @pytest.mark.parametrize("store", FLEET_STORES)
    def test_fleet_of_zero_forks_nothing(self, fleets_of_zero, store):
        inline = fleets_of_zero[store]
        assert inline.inline_units == SPEC.units
        assert inline.worker_summaries == []

    @pytest.mark.parametrize("store", FLEET_STORES)
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("heartbeat_operations", (1, 64))
    def test_fleet_matches_the_fleet_of_zero(self, fleets_of_zero, store,
                                             workers, heartbeat_operations):
        """Workers 0, 1 and 2 end with one visited set (its count and
        its ``visited_fingerprint()``).  ``heartbeat_operations`` is the
        one cadence inside a running unit: it moves when a lease is
        refreshed, never which states reach the campaign's table."""
        fleet = DistributedChecker(
            dataclasses.replace(SPEC, state_store=store), workers=workers,
            config=WorkerConfig(
                heartbeat_operations=heartbeat_operations)).run()
        assert fleet.inline_units == 0
        assert fingerprint(fleet) == fingerprint(fleets_of_zero[store])
        # every unit ships each state its own store found new, with no
        # cache in between, so an exact store started empty counts
        # shipped minus stored in a fleet too
        shipped = sum(unit.shipped_hashes for unit in fleet.unit_results)
        assert shipped == sum(unit.unique_states
                              for unit in fleet.unit_results)
        if store == "exact":
            assert fleet.cross_worker_duplicates == \
                shipped - fleet.visited_states


class TestOneHandOff:
    """A unit's states leave it once, with its result."""

    @pytest.mark.parametrize("store", FLEET_STORES)
    def test_a_unit_ships_each_state_it_found_once(self, store):
        """The batch holds one record per state the unit's own store
        reported new -- a bitstate store, which cannot list its keys,
        included -- and visiting it rebuilds that many states."""
        spec = dataclasses.replace(SPEC, state_store=store)
        done = run_unit(spec, spec.work_units()[1], "w0", WorkerConfig())
        records = list(done.batch.records())
        assert len(records) == done.result.shipped_hashes \
            == done.result.unique_states > 0
        assert len({key for key, _depth in records}) == len(records)
        assert all(depth == 0 for _key, depth in records)
        table = make_store(store, seed=spec.base_seed)
        table.visit_many(records)
        if store != "bitstate":  # whose bits two keys may share
            assert len(table) == len(records)


class TestGrantHandshake:
    def test_worker_waits_for_nothing_but_its_grant(self):
        """Heartbeats are fire-and-forget.  A coordinator that never
        answers them still gets the unit done, and sees exactly one
        WorkRequest per grant -- a second one would have it re-lease
        over a live unit.  The unit's states arrive once, in its
        UnitDone: every earlier message is a heartbeat."""
        parent, child = multiprocessing.Pipe(duplex=True)
        unit = SPEC.work_units()[0]
        worker = threading.Thread(
            target=worker_main,
            args=(child, SPEC, "w0", WorkerConfig(heartbeat_operations=10)),
            daemon=True)
        worker.start()
        try:
            assert isinstance(parent.recv(), WorkRequest)
            parent.send(WorkGrant(unit))
            before = []
            while True:
                message = parent.recv()
                if isinstance(message, UnitDone):
                    break
                before.append(message)  # ... and deliberately no answer
            assert message.result.index == unit.index
            assert before and all(isinstance(earlier, Heartbeat)
                                  for earlier in before), \
                "the worker asked twice for one grant, or shipped early"
            records = list(message.batch.records())
            assert len(records) == message.result.shipped_hashes \
                == message.result.unique_states
            assert len(set(records)) == len(records)
            assert isinstance(parent.recv(), WorkRequest)
            parent.send(NoMoreWork())
            worker.join(timeout=30)
            assert not worker.is_alive()
        finally:
            parent.close()


class TestRetiredDataPlane:
    """``data_plane`` is still accepted, so specs and results written
    while a fleet had a shared-memory plane keep loading, but it is
    stored nowhere."""

    def test_keyword_constructs_and_replaces(self):
        spec = CheckSpec(filesystems=("verifs1", "verifs2"),
                         data_plane="auto")
        again = dataclasses.replace(spec, base_seed=5)
        assert again == CheckSpec(filesystems=("verifs1", "verifs2"),
                                  base_seed=5)
        for plane in ("shm", "rpc"):
            assert dataclasses.replace(spec, data_plane=plane) == spec

    def test_not_a_field(self):
        spec = CheckSpec(filesystems=("verifs1", "verifs2"),
                         data_plane="shm")
        assert "data_plane" not in {item.name
                                    for item in dataclasses.fields(spec)}
        assert "data_plane" not in spec.to_dict()
        assert hash(spec) == hash(CheckSpec(
            filesystems=("verifs1", "verifs2")))

    def test_old_documents_load(self, baseline):
        spec_document = SPEC.to_dict()
        spec_document["data_plane"] = "shm"
        assert CheckSpec.from_dict(spec_document) == SPEC
        result_document = baseline.to_dict()
        assert "data_plane" not in result_document
        result_document["data_plane"] = "shm"
        loaded = DistResult.from_dict(json.loads(json.dumps(
            result_document)))
        assert fingerprint(loaded) == fingerprint(baseline)

    def test_unknown_plane_is_still_refused(self):
        with pytest.raises(ValueError, match="unknown data plane"):
            CheckSpec(filesystems=("verifs1", "verifs2"),
                      data_plane="bogus")


# ----------------------------------------------------- cooperative swarm --
class TestCooperativeSwarm:
    """The fleet is the swarm: diversified members that each explore
    privately and pool what they find in one shared table."""

    def test_members_share_one_table(self, baseline):
        table = VisitedStateTable()
        result = DistributedChecker(SPEC, workers=0, table=table).run()
        assert result.table is table
        assert table.visited_fingerprint() == \
            baseline.table.visited_fingerprint()

    def test_classic_members_may_overlap(self, baseline):
        explored = sum(unit.unique_states for unit in baseline.unit_results)
        assert explored > baseline.visited_states  # re-explored territory


# ------------------------------------------------------------ reporting --
class TestRunSummary:
    def test_render_includes_duplicate_hit_ratio(self):
        summary = RunSummary(operations=10, unique_states=7, sim_time=0.5,
                             ops_per_second=20.0, stopped_reason="budget",
                             duplicate_hits=3, duplicate_hit_ratio=0.3)
        text = summary.render()
        assert "operations : 10" in text
        assert "dup hits   : 3 (30.0% of visits)" in text
        assert "fsck" not in text

    def test_from_result_reads_table_stats(self):
        mcfs = SPEC.build_mcfs()
        result = mcfs.run_random(max_operations=50, seed=1)
        summary = RunSummary.from_result(result)
        assert summary.operations == 50
        assert summary.duplicate_hits == result.table_stats.duplicate_hits
        assert 0.0 <= summary.duplicate_hit_ratio <= 1.0


# ------------------------------------------------------------------- cli --
class TestDistCLI:
    def test_check_workers_flag(self, capsys):
        from repro.cli import main

        code = main(["check", "--fs", "verifs1", "--fs", "verifs2",
                     "--mode", "random", "--max-ops", "400", "--seed", "1",
                     "--workers", "2", "--units", "4", "--unit-depth", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "workers    : 2" in out
        assert "inline), " in out and "states/s wall" in out
        assert "data plane" not in out
        assert "speedup" in out

    def test_check_workers_rejects_dfs(self, capsys):
        from repro.cli import main

        code = main(["check", "--fs", "verifs1", "--fs", "verifs2",
                     "--mode", "dfs", "--workers", "2"])
        assert code == 2

    def test_swarm_subcommand(self, capsys):
        from repro.cli import main

        code = main(["swarm", "--fs", "verifs1", "--fs", "verifs2",
                     "--workers", "2", "--units", "4", "--max-ops", "400",
                     "--unit-depth", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "w0" in out and "w1" in out
        assert "merged states" in out
        assert "speedup" in out
        # swarm is check --workers plus the per-worker table
        assert "workers    : 2" in out
        assert "stopped    : distributed campaign complete" in out

    def test_check_workers_reports_a_violation(self, capsys):
        from repro.cli import main

        code = main(["check", "--fs", "verifs1", "--fs", "verifs2",
                     "--mode", "random", "--max-ops", "900", "--seed", "1",
                     "--workers", "0", "--units", "6", "--unit-depth", "8",
                     "--inject-bug", "write-hole-stale"])
        out = capsys.readouterr().out
        assert code == 1
        assert "stopped    : property violation" in out
        assert "campaign complete" not in out
        assert "workers    : 0 (6 units, 0 stolen, 0 recovered, 6 inline)" \
            in out
