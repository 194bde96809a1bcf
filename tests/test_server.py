"""repro.server: campaign-as-a-service.

The load-bearing properties under test:

* **engine determinism** -- a server-run campaign explores exactly the
  state set of a one-shot ``DistributedChecker`` run of the same spec,
  and two identical scripted sessions produce byte-identical event
  streams (virtual clock, sequence numbers, payloads);
* **pause/resume** -- pausing at a unit boundary, restarting the engine
  from its spool, and resuming produces a result identical to an
  uninterrupted run (extending the ``tests/test_dist.py`` fingerprint
  harness across a daemon lifetime);
* **tenant budgets** -- an over-budget submission is forced onto a
  bitstate store sized to the remaining budget, and a tenant with no
  budget left at all is refused;
* **the wire** -- a real daemon on a real Unix socket serves concurrent
  clients: submission, watching (replay + live), pause/resume/cancel,
  and graceful shutdown that spools running jobs.
"""

import dataclasses
import json
import os
import threading

import pytest

from repro.dist import CheckSpec, DistributedChecker
from repro.dist.coordinator import DistResult
from repro.server import (
    BudgetExceeded,
    CampaignEngine,
    EngineConfig,
    InvalidTransition,
    ReproClient,
    ReproServer,
    SubmitRequest,
    UnknownJob,
)
from repro.server.protocol import JobEvent, decode_line, encode_line

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


def fingerprint(dist):
    """Everything that must be invariant across fleets, crashes, and --
    new here -- pause/restart/resume cycles of the campaign server."""
    return (
        dist.visited_states,
        dist.total_operations,
        dist.discrepancy_signature(),
        sorted((unit.index, unit.operations, unit.unique_states)
               for unit in dist.unit_results),
    )


@pytest.fixture(scope="module")
def baseline():
    """The one-shot reference run every served campaign must reproduce."""
    return DistributedChecker(SPEC, workers=1).run()


@pytest.fixture(scope="module")
def bug_baseline():
    return DistributedChecker(BUG_SPEC, workers=1).run()


def submit(engine, spec=SPEC, **kwargs):
    return engine.submit(SubmitRequest(spec=spec, **kwargs))


# ------------------------------------------------------------ the engine --
class TestEngineBasics:
    def test_served_campaign_equals_one_shot(self, baseline):
        engine = CampaignEngine(EngineConfig(slots=1))
        job = submit(engine)
        engine.run_until_idle()
        assert job.state == "done"
        served = engine.result(job.job_id)
        # each slice was a fleet of zero; so is this whole campaign
        inline = DistributedChecker(SPEC, workers=0).run()
        for result in (served, inline):
            assert fingerprint(result) == fingerprint(baseline)
            assert result.table.visited_fingerprint() == \
                baseline.table.visited_fingerprint()

    def test_concurrent_jobs_interleave_and_both_finish(self, baseline):
        engine = CampaignEngine(EngineConfig(slots=2))
        first = submit(engine)
        second = submit(engine)
        engine.run_until_idle()
        assert first.state == second.state == "done"
        for job in (first, second):
            assert fingerprint(engine.result(job.job_id)) == \
                fingerprint(baseline)
        # slices interleaved: first progress events alternate job ids
        progress = [event.job_id for event in engine.events
                    if event.kind == "progress"][:4]
        assert set(progress) == {first.job_id, second.job_id}

    def test_priority_orders_the_queue(self):
        engine = CampaignEngine(EngineConfig(slots=1))
        low = submit(engine, priority=0)
        high = submit(engine, priority=5)
        engine.step()  # admits exactly one job into the single slot
        assert engine.job(high.job_id).state == "running"
        assert engine.job(low.job_id).state == "queued"

    def test_discrepancies_are_counted_and_streamed(self, bug_baseline,
                                                    tmp_path):
        engine = CampaignEngine(EngineConfig(
            slots=1, trail_dir=str(tmp_path / "trails")))
        job = submit(engine, spec=BUG_SPEC)
        engine.run_until_idle()
        assert job.discrepancies == len(bug_baseline.discrepancies)
        kinds = [event.kind for event in engine.events]
        assert kinds.count("discrepancy") == job.discrepancies
        assert kinds.count("trail") == len(job.trail_paths)
        assert job.trail_paths
        assert all(os.path.exists(path) for path in job.trail_paths)
        assert fingerprint(engine.result(job.job_id)) == \
            fingerprint(bug_baseline)

    def test_fleet_job_equals_one_shot(self, baseline, bug_baseline):
        engine = CampaignEngine(EngineConfig(slots=1))
        job = submit(engine, workers=2)
        hunt = submit(engine, spec=BUG_SPEC, workers=2)
        engine.run_until_idle()
        assert job.state == hunt.state == "done"
        assert fingerprint(engine.result(hunt.job_id)) == \
            fingerprint(bug_baseline)
        result = engine.result(job.job_id)
        assert fingerprint(result) == fingerprint(baseline)
        assert result.table.visited_fingerprint() == \
            baseline.table.visited_fingerprint()
        # the slices' fleet accounting reaches the job's one result
        assert [(worker.worker_id, worker.units_completed)
                for worker in result.worker_summaries] == \
            [("w0", 2), ("w1", 2)]
        assert result.wall_time > 0

    @pytest.mark.parametrize("workers", (1, 2))
    def test_profiled_job_returns_the_merged_profile(self, workers):
        engine = CampaignEngine(EngineConfig(slots=1))
        job = submit(engine, spec=dataclasses.replace(SPEC, profile=True),
                     workers=workers)
        engine.run_until_idle()
        result = engine.result(job.job_id)
        units = [unit.cost_profile for unit in result.unit_results]
        assert all(profile is not None for profile in units)
        assert result.cost_profile["states"] == \
            sum(profile["states"] for profile in units)
        assert result.cost_profile["seconds"]["ship"] == pytest.approx(
            sum(profile["seconds"]["ship"] for profile in units))
        restored = DistResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert restored.cost_profile == result.cost_profile

    def test_unknown_job_and_bad_transitions_raise(self):
        engine = CampaignEngine(EngineConfig(slots=1))
        with pytest.raises(UnknownJob):
            engine.job("job-9999")
        job = submit(engine)
        engine.run_until_idle()
        with pytest.raises(InvalidTransition):
            engine.resume(job.job_id)  # done, not paused
        with pytest.raises(InvalidTransition):
            engine.cancel(job.job_id)  # already terminal

    def test_cancel_releases_the_slot(self, baseline):
        engine = CampaignEngine(EngineConfig(slots=1))
        doomed = submit(engine)
        survivor = submit(engine)
        engine.step()  # doomed starts
        engine.cancel(doomed.job_id)
        engine.run_until_idle()
        assert doomed.state == "cancelled"
        assert survivor.state == "done"
        assert fingerprint(engine.result(survivor.job_id)) == \
            fingerprint(baseline)
        with pytest.raises(InvalidTransition):
            engine.result(doomed.job_id)


# ------------------------------------------------------- event streaming --
class TestEventStream:
    def test_lifecycle_event_order(self):
        engine = CampaignEngine(EngineConfig(slots=1))
        job = submit(engine)
        engine.run_until_idle()
        kinds = [event.kind for event in engine.events
                 if event.kind not in ("heartbeat",)]
        assert kinds[0] == "submitted"
        assert kinds[1] == "started"
        assert kinds[-1] == "done"
        assert kinds.count("progress") == SPEC.units
        assert [event.seq for event in engine.events] == \
            list(range(len(engine.events)))
        assert all(event.job_id == job.job_id for event in engine.events)

    def test_identical_sessions_produce_identical_streams(self):
        """The virtual clock makes scripted scenarios replay exactly."""
        def run_session():
            engine = CampaignEngine(EngineConfig(slots=2))
            submit(engine, tenant="a")
            submit(engine, tenant="b", priority=3)
            engine.run_until_idle()
            return [json.dumps(event.to_dict(), sort_keys=True)
                    for event in engine.events]

        assert run_session() == run_session()

    def test_vtime_advances_with_campaign_sim_time(self):
        engine = CampaignEngine(EngineConfig(slots=1))
        submit(engine)
        engine.run_until_idle()
        done = [event for event in engine.events if event.kind == "done"]
        assert done[0].vtime > 0.0
        assert done[0].vtime == pytest.approx(engine.clock.now)

    def test_events_for_filters_by_job_and_seq(self):
        engine = CampaignEngine(EngineConfig(slots=2))
        first = submit(engine)
        second = submit(engine)
        engine.run_until_idle()
        only_second = engine.events_for(second.job_id)
        assert only_second
        assert all(event.job_id == second.job_id for event in only_second)
        tail = engine.events_for(first.job_id,
                                 from_seq=only_second[0].seq)
        assert all(event.seq >= only_second[0].seq for event in tail)


class TestJobFailure:
    def test_a_raising_slice_fails_its_job_only(self, baseline, tmp_path,
                                                monkeypatch):
        """A campaign that raises mid-slice ends ``failed`` with the
        error; the engine, the other job and the spool carry on."""
        broken = dataclasses.replace(SPEC, base_seed=99)
        run = DistributedChecker.run

        def run_or_raise(checker):
            if checker.spec == broken:
                raise RuntimeError("slice exploded")
            return run(checker)

        monkeypatch.setattr(DistributedChecker, "run", run_or_raise)
        spool = str(tmp_path / "spool")
        engine = CampaignEngine(EngineConfig(slots=2, spool_dir=spool))
        bad = submit(engine, spec=broken)
        good = submit(engine)
        engine.run_until_idle()

        assert bad.state == "failed"
        assert bad.error == "RuntimeError: slice exploded"
        assert [(event.job_id, event.payload) for event in engine.events
                if event.kind == "failed"] == \
            [(bad.job_id, {"error": bad.error})]
        assert good.state == "done"
        assert fingerprint(engine.result(good.job_id)) == \
            fingerprint(baseline)

        reborn = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        restored = reborn.job(bad.job_id)
        assert (restored.state, restored.error) == ("failed", bad.error)

    @pytest.mark.parametrize("damage", ["truncated", "other-store"])
    def test_a_bad_pause_snapshot_fails_its_job_only(self, baseline,
                                                     tmp_path, damage):
        """The snapshot loads inside the per-job guard: entries cut
        mid-record, or a store the resume rule refuses, end that job
        ``failed`` with the loader's message; the daemon and the next
        job carry on."""
        spool = tmp_path / "spool"
        engine = CampaignEngine(EngineConfig(slots=1, spool_dir=str(spool)))
        bad = submit(engine)
        engine.step()
        engine.pause(bad.job_id)
        engine.step()
        path = spool / f"{bad.job_id}.json"
        document = json.loads(path.read_text())
        store = document["snapshot"]["store"]
        if damage == "truncated":
            store["entries"] = store["entries"][:-2]
        else:
            store.update(kind="hc", fp_bytes=4, entries="")
        path.write_text(json.dumps(document))

        reborn = CampaignEngine(EngineConfig(slots=1, spool_dir=str(spool)))
        reborn.resume(bad.job_id)
        good = submit(reborn)
        reborn.run_until_idle()
        failed = reborn.job(bad.job_id)
        assert failed.state == "failed"
        assert failed.error.startswith("StoreFormatError: ")
        assert ("entries" if damage == "truncated" else "store: ") \
            in failed.error
        assert good.state == "done"
        assert fingerprint(reborn.result(good.job_id)) == \
            fingerprint(baseline)


class TestSpoolReload:
    @pytest.mark.parametrize("text,field", [
        ('{"spool_version": 1, "descri', "not JSON"),
        ('{"spool_version": 1}', "'descriptor'"),
        ('{"spool_version": 1, "descriptor": {"job_id": "job-0001"}}',
         "'spec'"),
        ('{"spool_version": 1, "submit_seq": "x"}', "'x'"),
    ])
    def test_a_torn_spool_document_is_a_typed_error(self, tmp_path, text,
                                                    field, capsys):
        """A torn or incomplete job document names its file and field;
        ``repro serve`` reports it and exits 2 instead of a
        traceback."""
        from repro.cli import main

        spool = tmp_path / "spool"
        spool.mkdir()
        path = spool / "job-0001.json"
        path.write_text(text)
        with pytest.raises(ValueError) as error:
            CampaignEngine(EngineConfig(spool_dir=str(spool)))
        assert str(path) in str(error.value) and field in str(error.value)
        assert main(["serve", "--socket", str(tmp_path / "d.sock"),
                     "--spool", str(spool)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert not (tmp_path / "d.sock").exists()


# -------------------------------------------------------- pause / resume --
class TestPauseResume:
    def test_pause_lands_at_unit_boundary(self):
        engine = CampaignEngine(EngineConfig(slots=1))
        job = submit(engine)
        engine.step()  # admit + first unit
        engine.pause(job.job_id)
        engine.step()  # the pause lands here, before another unit runs
        assert job.state == "paused"
        assert job.units_done == 1
        assert engine.step() is None  # nothing runnable while paused

    def test_resumed_run_is_identical_to_uninterrupted(self, baseline):
        engine = CampaignEngine(EngineConfig(slots=1))
        job = submit(engine)
        engine.step()
        engine.pause(job.job_id)
        engine.step()
        engine.resume(job.job_id)
        engine.run_until_idle()
        assert job.state == "done"
        assert fingerprint(engine.result(job.job_id)) == \
            fingerprint(baseline)

    def test_resume_after_engine_restart_is_identical(self, bug_baseline,
                                                      tmp_path):
        """The acceptance property: pause, kill the daemon, start a new
        one on the same spool, resume -- explored state set, operation
        total, and discrepancy signature all match the one-shot run."""
        spool = str(tmp_path / "spool")
        engine = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        job = submit(engine, spec=BUG_SPEC)
        engine.step()
        engine.step()
        engine.pause(job.job_id)
        engine.step()
        assert job.state == "paused"
        assert 0 < job.units_done < BUG_SPEC.units
        del engine  # the daemon dies

        reborn = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        restored = reborn.job(job.job_id)
        assert restored.state == "paused"
        assert restored.units_done == job.units_done
        reborn.resume(job.job_id)
        reborn.run_until_idle()
        assert fingerprint(reborn.result(job.job_id)) == \
            fingerprint(bug_baseline)

    def test_resume_after_restart_keeps_the_table_counters(self,
                                                           tmp_path):
        """A resumed job runs on the table its snapshot holds, persisted
        counters included, so it reports what the uninterrupted job
        reports: the same visited set, duplicate count and table
        stats."""
        whole = CampaignEngine(EngineConfig(slots=1))
        uninterrupted = submit(whole, spec=BUG_SPEC)
        whole.run_until_idle()
        spool = str(tmp_path / "spool")
        engine = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        job = submit(engine, spec=BUG_SPEC)
        engine.step()
        engine.step()
        engine.pause(job.job_id)
        engine.step()
        reborn = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        reborn.resume(job.job_id)
        reborn.run_until_idle()
        for result in (reborn.result(job.job_id),
                       whole.result(uninterrupted.job_id)):
            assert result.cross_worker_duplicates > 0
        resumed = reborn.result(job.job_id)
        expected = whole.result(uninterrupted.job_id)
        assert resumed.table.visited_fingerprint() == \
            expected.table.visited_fingerprint()
        assert resumed.cross_worker_duplicates == \
            expected.cross_worker_duplicates
        assert resumed.table.stats.to_dict() == \
            expected.table.stats.to_dict()

    def test_restart_after_crash_mid_run_recovers(self, baseline, tmp_path):
        """No graceful shutdown at all: the job was spooled *running*.
        Completed units are kept; the rest re-derive from the spec."""
        spool = str(tmp_path / "spool")
        engine = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        job = submit(engine)
        engine.step()
        engine.step()  # two units done, still running, spool says so
        del engine  # simulated SIGKILL: no pause, no snapshot

        reborn = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        assert reborn.job(job.job_id).state == "queued"
        reborn.run_until_idle()
        assert fingerprint(reborn.result(job.job_id)) == \
            fingerprint(baseline)

    def test_profiled_job_keeps_its_whole_profile_across_a_restart(
            self, tmp_path):
        """The merged profile covers the units finished before the daemon
        died, not only the slices the reborn daemon ran."""
        spool = str(tmp_path / "spool")
        engine = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        job = submit(engine, spec=dataclasses.replace(SPEC, profile=True))
        engine.step()
        engine.step()
        del engine

        reborn = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        reborn.run_until_idle()
        result = reborn.result(job.job_id)
        assert len(result.unit_results) == SPEC.units
        assert result.cost_profile["states"] == sum(
            unit.cost_profile["states"] for unit in result.unit_results)

    def test_spool_written_before_typed_specs_resumes(self, baseline,
                                                      tmp_path):
        """A spool whose descriptor carries the spec as a plain dict
        without the search fields loads as a CheckSpec and resumes."""
        spool = tmp_path / "spool"
        engine = CampaignEngine(EngineConfig(slots=1, spool_dir=str(spool)))
        job = submit(engine)
        engine.step()
        engine.pause(job.job_id)
        engine.step()
        del engine
        path = spool / f"{job.job_id}.json"
        document = json.loads(path.read_text())
        spec = document["descriptor"]["spec"]
        for key in ("mode", "depth", "por", "max_ops", "coverage"):
            del spec[key]
        path.write_text(json.dumps(document))

        reborn = CampaignEngine(EngineConfig(slots=1, spool_dir=str(spool)))
        assert reborn.job(job.job_id).spec == SPEC
        reborn.resume(job.job_id)
        reborn.run_until_idle()
        assert fingerprint(reborn.result(job.job_id)) == \
            fingerprint(baseline)

    def test_pause_of_queued_job_skips_admission(self):
        engine = CampaignEngine(EngineConfig(slots=1))
        running = submit(engine)
        queued = submit(engine)
        engine.step()
        engine.pause(queued.job_id)
        assert queued.state == "paused"
        engine.run_until_idle()
        assert running.state == "done"
        assert queued.state == "paused"
        engine.resume(queued.job_id)
        engine.run_until_idle()
        assert queued.state == "done"

    def test_lossy_store_pause_resume_round_trips(self, tmp_path):
        """A bitstate campaign pauses and resumes through its own store
        record (two arrays), not an entry list it never kept."""
        spool = str(tmp_path / "spool")
        spec = dataclasses.replace(SPEC, state_store="bitstate:16384,3")
        one_shot = DistributedChecker(spec, workers=1).run()
        engine = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        job = submit(engine, spec=spec)
        engine.step()
        engine.pause(job.job_id)
        engine.step()
        del engine
        reborn = CampaignEngine(EngineConfig(slots=1, spool_dir=spool))
        reborn.resume(job.job_id)
        reborn.run_until_idle()
        assert fingerprint(reborn.result(job.job_id)) == \
            fingerprint(one_shot)


# -------------------------------------------------------- tenant budgets --
class TestTenantBudgets:
    def test_within_budget_runs_as_requested(self):
        engine = CampaignEngine(EngineConfig(
            slots=1, tenant_budgets={"rich": 1 << 26}))
        job = submit(engine, tenant="rich")
        assert not job.store_forced
        assert job.effective_store == "exact"

    def test_over_budget_forces_bitstate(self):
        engine = CampaignEngine(EngineConfig(
            slots=1, tenant_budgets={"poor": 4096}))
        job = submit(engine, tenant="poor")
        assert job.store_forced
        assert job.effective_store.startswith("bitstate:")
        assert job.planned_store_bytes <= 4096
        kinds = [event.kind for event in engine.events]
        assert "store-forced" in kinds
        engine.run_until_idle()
        assert job.state == "done"

    def test_budget_is_aggregate_across_active_jobs(self):
        # SPEC's exact store plans 16000 bytes: one job fits under
        # 20000, two concurrent ones cannot
        engine = CampaignEngine(EngineConfig(
            slots=2, tenant_budgets={"team": 20_000}))
        first = submit(engine, tenant="team")
        assert not first.store_forced
        second = submit(engine, tenant="team")
        assert second.store_forced  # first's reservation is still held

    def test_finished_jobs_release_their_reservation(self):
        engine = CampaignEngine(EngineConfig(
            slots=1, tenant_budgets={"team": 20_000}))
        first = submit(engine, tenant="team")
        engine.run_until_idle()
        assert first.state == "done"
        second = submit(engine, tenant="team")
        assert not second.store_forced

    def test_exhausted_budget_refuses_admission(self):
        engine = CampaignEngine(EngineConfig(
            slots=1, tenant_budgets={"broke": 512}))
        with pytest.raises(BudgetExceeded):
            submit(engine, tenant="broke")

    def test_forced_campaign_still_equals_exact_when_collision_free(self):
        """At this campaign size the forced bitstate has no collisions,
        so even the lossy result matches the exact baseline -- and the
        omission probability is reported, not hidden."""
        engine = CampaignEngine(EngineConfig(
            slots=1, tenant_budgets={"poor": 8192}))
        job = submit(engine, tenant="poor")
        engine.run_until_idle()
        result = engine.result(job.job_id)
        exact = DistributedChecker(SPEC, workers=1).run()
        assert result.visited_states == exact.visited_states
        assert result.omission_possible


# ------------------------------------------------------------- the wire --
def encode_decode(document):
    return decode_line(encode_line(document))


class TestWireFraming:
    def test_encode_is_byte_stable(self):
        first = encode_line({"b": 1, "a": {"y": 2, "x": 3}})
        second = encode_line({"a": {"x": 3, "y": 2}, "b": 1})
        assert first == second

    def test_round_trip(self):
        document = {"op": "submit", "id": 7, "spec": {"units": 4}}
        assert encode_decode(document) == document

    def test_junk_raises_protocol_error(self):
        from repro.server.protocol import ProtocolError

        with pytest.raises(ProtocolError):
            decode_line(b"not json at all {")
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2, 3]")

    def test_job_event_round_trip(self):
        event = JobEvent(kind="progress", job_id="job-0001", seq=3,
                         vtime=1.5, payload={"unit": 2})
        assert JobEvent.from_dict(
            encode_decode(event.to_dict())) == event


@pytest.fixture()
def server(tmp_path):
    """A real daemon on a real Unix socket, running in a thread."""
    instance = ReproServer(
        socket_path=str(tmp_path / "repro.sock"),
        config=EngineConfig(slots=2,
                            spool_dir=str(tmp_path / "spool"),
                            trail_dir=str(tmp_path / "trails"),
                            tenant_budgets={"poor": 4096}))
    instance.start()  # bind before the loop thread: no connect race
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance._stopping = True
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestDaemon:
    def test_ping(self, server):
        with ReproClient(socket_path=server.socket_path) as client:
            reply = client.ping()
        assert reply["pong"] is True
        assert reply["version"] == 1

    def test_two_clients_submit_and_watch_concurrently(self, server,
                                                       baseline):
        with ReproClient(socket_path=server.socket_path) as one, \
                ReproClient(socket_path=server.socket_path) as two:
            first = one.submit(SPEC, tenant="a")
            second = two.submit(SPEC, tenant="poor")
            assert second["store_forced"]
            first_events = list(one.watch(first["job_id"]))
            second_events = list(two.watch(second["job_id"]))
            assert first_events[-1]["kind"] == "done"
            assert second_events[-1]["kind"] == "done"
            for job_id in (first["job_id"], second["job_id"]):
                served = DistResult.from_dict(one.result(job_id))
                assert fingerprint(served) == fingerprint(baseline)

    def test_watch_replays_for_late_subscribers(self, server):
        with ReproClient(socket_path=server.socket_path) as client:
            job = client.submit(SPEC)
            client.wait(job["job_id"])
            # a second client arrives after the job finished: the
            # replay alone must carry the whole lifecycle
            with ReproClient(socket_path=server.socket_path) as late:
                events = list(late.watch(job["job_id"]))
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "done"

    def test_watch_finished_job_beyond_its_events_returns(self, server):
        with ReproClient(socket_path=server.socket_path) as client:
            job = client.submit(SPEC)
            client.wait(job["job_id"])
            events = list(client.watch(job["job_id"], from_seq=10**9))
        assert events == []  # returns promptly instead of hanging

    def test_errors_come_back_as_failed_requests(self, server):
        from repro.server import RequestFailed

        with ReproClient(socket_path=server.socket_path) as client:
            with pytest.raises(RequestFailed, match="UnknownJob"):
                client.job("job-9999")
            # the first submit reserves most of tenant "poor"'s 4096
            # bytes; the second cannot fit even the smallest useful
            # forced store and is refused outright
            first = client.submit(SPEC, tenant="poor")
            client.pause(first["job_id"])  # hold the reservation
            with pytest.raises(RequestFailed, match="BudgetExceeded"):
                client.submit(SPEC, tenant="poor")

    def test_invalid_specs_are_refused_at_submit(self, server):
        from repro.server import RequestFailed

        with ReproClient(socket_path=server.socket_path) as client:
            before = len(client.jobs())
            for bad in ({"verifs_bugs": ["not-a-bug"]},
                        {"filesystems": ["verifs1", "ext4"],
                         "verifs_bugs": ["write-hole-stale"]},
                        {"mode": "dfs"}):
                with pytest.raises(RequestFailed, match="ValueError"):
                    client.submit({**SPEC.to_dict(), **bad})
            assert len(client.jobs()) == before

    def test_graceful_shutdown_spools_running_jobs(self, tmp_path,
                                                   baseline):
        """Daemon restart over the wire: pause-on-shutdown, new daemon
        on the same spool, resume, identical result."""
        spool = str(tmp_path / "spool")
        first = ReproServer(socket_path=str(tmp_path / "one.sock"),
                            config=EngineConfig(slots=1, spool_dir=spool))
        first.start()
        thread = threading.Thread(target=first.serve_forever, daemon=True)
        thread.start()
        with ReproClient(socket_path=first.socket_path) as client:
            job = client.submit(SPEC)
            for _ in range(500):
                if client.job(job["job_id"])["units_done"] > 0:
                    break
            client.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()

        second = ReproServer(socket_path=str(tmp_path / "two.sock"),
                             config=EngineConfig(slots=1, spool_dir=spool))
        restored = second.engine.job(job["job_id"])
        # tiny campaigns can beat the shutdown request; either way the
        # restarted daemon must end up with the one-shot result
        if restored.state == "paused":
            second.engine.resume(job["job_id"])
        second.engine.run_until_idle()
        assert second.engine.job(job["job_id"]).state == "done"
        assert fingerprint(second.engine.result(job["job_id"])) == \
            fingerprint(baseline)
