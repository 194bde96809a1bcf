"""repro.dist: distributed exploration across a real multiprocessing fleet.

The load-bearing properties under test:

* **determinism** -- the merged result (visited-state count, operation
  total, discrepancy signature) is identical for any worker count;
* **fault tolerance** -- SIGKILLing a worker mid-run re-issues its
  leased unit and the final result is still identical;
* **exactness of the cache** -- the LRU fast path never loses a key, so
  the union at the service is exact.
"""

import dataclasses
import json

import pytest

from repro.core.report import RunSummary
from repro.dist import (
    CheckSpec,
    DistributedChecker,
    LRUSet,
    ShippingVisitedTable,
    VisitedStateService,
    WorkerConfig,
    unique_labels,
)
from repro.dist.spec import SEED_STRIDE
from repro.mc.hashtable import VisitedStateTable
from repro.mc.persistence import (
    load_checker_state,
    save_checker_state,
    snapshot_document,
)
from repro.mc.records import StoreFormatError
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
CHAOS_CONFIG = WorkerConfig(heartbeat_operations=20, checkpoint_operations=40)


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


# ---------------------------------------------------------------- caches --
class TestLRUSet:
    def test_evicts_oldest(self):
        lru = LRUSet(capacity=2)
        lru.add("a")
        lru.add("b")
        lru.add("c")  # evicts a
        assert "a" not in lru
        assert "b" in lru and "c" in lru
        assert lru.evictions == 1

    def test_lookup_refreshes_recency(self):
        lru = LRUSet(capacity=2)
        lru.add("a")
        lru.add("b")
        assert "a" in lru  # refresh: a is now the most recent
        lru.add("c")  # evicts b, not a
        assert "a" in lru
        assert "b" not in lru


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

    def test_unique_labels(self):
        assert unique_labels(["ext4", "ext4", "ext4"]) == [
            "ext4", "ext42", "ext43"]

    def test_build_mcfs_attaches_spec(self):
        mcfs = SPEC.build_mcfs()
        assert mcfs.spec is SPEC
        assert len(mcfs.futs) == 2


# ------------------------------------------------------- shipping table --
class TestShippingVisitedTable:
    def test_batches_until_threshold(self):
        shipped = []
        table = ShippingVisitedTable(ship=shipped.append, batch_size=3)
        table.visit(A, 1)
        table.visit(B, 2)
        assert shipped == []  # buffered
        table.visit(C, 3)
        assert shipped == [[(KA, 1), (KB, 2), (KC, 3)]]  # eager flush

    def test_flush_drains_partial_batch(self):
        shipped = []
        table = ShippingVisitedTable(ship=shipped.append, batch_size=64)
        table.visit(A, 1)
        table.flush()
        assert shipped == [[(KA, 1)]]
        assert table.shipped_hashes == 1

    def test_duplicates_never_ship(self):
        shipped = []
        table = ShippingVisitedTable(ship=shipped.append, batch_size=1)
        table.visit(A, 1)
        is_new, _ = table.visit(A, 2)
        assert not is_new
        assert shipped == [[(KA, 1)]]  # shipped exactly once

    def test_lru_suppresses_cross_unit_resends(self):
        lru = LRUSet()
        lru.add(KA)  # an earlier unit of this worker shipped it
        shipped = []
        table = ShippingVisitedTable(ship=shipped.append, shipped_lru=lru,
                                     batch_size=1)
        table.visit(A, 1)
        assert shipped == []
        assert table.suppressed_hashes == 1

    def test_local_semantics_delegate(self):
        table = ShippingVisitedTable(ship=lambda batch: None)
        table.visit("a", 1)
        assert len(table) == 1
        assert "a" in table
        assert table.stats.inserts == 1

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            ShippingVisitedTable(ship=lambda batch: None, batch_size=0)


# --------------------------------------------------------------- service --
class TestVisitedStateService:
    def test_insert_batch_reports_new_flags(self):
        service = VisitedStateService()
        assert service.insert_batch([(KA, 1), (KB, 2)]) == [True, True]
        assert service.insert_batch([(KA, 1), (KC, 3)]) == [False, True]
        assert len(service) == 3
        assert service.cross_worker_duplicates == 1
        assert A in service.table  # record keys land as state hashes

    def test_import_snapshot_is_idempotent(self):
        table = VisitedStateTable()
        table.visit(A, 1)
        table.visit(B, 2)
        document = snapshot_document(table)
        service = VisitedStateService()
        assert service.import_snapshot(document) == 2
        assert service.import_snapshot(document) == 0  # re-merge is a no-op
        assert len(service) == 2


# ----------------------------------------------------------- persistence --
class TestPersistenceV2:
    """Exact-table snapshots (the class name predates the single
    format; refusal of old versions is pinned in test_statestore)."""

    def test_roundtrip_carries_provenance(self, tmp_path):
        path = str(tmp_path / "state.json")
        table = VisitedStateTable()
        table.visit(A, 2)
        table.visit(A, 5)  # duplicate hit
        save_checker_state(path, table, operations_completed=7, runs=3,
                           seed=42, worker_id="w1")
        snapshot = load_checker_state(path)
        assert snapshot.seed == 42
        assert snapshot.worker_id == "w1"
        assert snapshot.operations_completed == 7
        assert snapshot.runs == 3
        assert snapshot.visited.export_seen() == {A: 2}
        assert snapshot.table_stats.duplicate_hits == 1

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

    def test_import_seen_keeps_shallowest_depth(self):
        table = VisitedStateTable()
        table.visit("a", 5)
        assert table.import_seen({"a": 2, "b": 3}) == 1  # only b is new
        assert table.export_seen() == {"a": 2, "b": 3}


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


# ------------------------------------------------------- fault tolerance --
class TestFaultTolerance:
    def test_sigkilled_worker_costs_nothing_but_time(self, baseline):
        fleet = DistributedChecker(
            SPEC, workers=2, config=CHAOS_CONFIG,
            chaos_kill_after={"w1": 50},  # SIGKILL mid-unit
        ).run()
        assert fingerprint(fleet) == fingerprint(baseline)
        assert fleet.recovered_units >= 1
        dead = {s.worker_id: s for s in fleet.worker_summaries}["w1"]
        assert not dead.alive_at_end

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

    def test_state_file_resumes_across_campaigns(self, tmp_path, baseline):
        path = str(tmp_path / "dist-state.json")
        first = DistributedChecker(SPEC, workers=2, state_file=path).run()
        assert fingerprint(first) == fingerprint(baseline)
        snapshot = load_checker_state(path)
        assert snapshot.runs == 1
        assert snapshot.worker_id == "coordinator"
        assert len(snapshot.visited) == first.visited_states
        second = DistributedChecker(SPEC, workers=2, state_file=path).run()
        # the union is already known: the second campaign adds nothing
        assert second.visited_states == first.visited_states
        assert load_checker_state(path).runs == 2

    def test_server_pause_restart_resume_matches_one_shot(self, tmp_path,
                                                          baseline):
        """The campaign server's pause/resume rides the same unit
        determinism the crash tests above pin: pausing mid-campaign,
        losing the engine entirely, and resuming from its spool explores
        the identical state set as an uninterrupted run."""
        from repro.server import CampaignEngine, EngineConfig, SubmitRequest

        spool = str(tmp_path / "spool")
        engine = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        job = engine.submit(SubmitRequest(spec=SPEC.to_dict()))
        engine.step()  # one unit lands
        engine.pause(job.job_id)
        engine.step()  # the pause snapshot (store + frontier) is spooled
        assert engine.job(job.job_id).state == "paused"

        reborn = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        reborn.resume(job.job_id)
        reborn.run_until_idle()
        assert fingerprint(reborn.result(job.job_id)) == \
            fingerprint(baseline)


# ----------------------------------------------------- cooperative swarm --
class TestCooperativeSwarm:
    """The fleet is the swarm: diversified members that each explore
    privately and pool what they find in one shared service."""

    def test_members_share_one_table(self, baseline):
        service = VisitedStateService()
        result = DistributedChecker(SPEC, workers=0, service=service).run()
        assert result.table is service.table
        assert service.table.visited_fingerprint() == \
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
