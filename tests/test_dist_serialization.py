"""Lossless round-trip contracts for distributed & server documents.

The companion of ``tests/test_report_serialization.py`` one layer up the
stack: every document the campaign server ships over its wire or writes
to its spool -- unit run records, worker summaries, merged
:class:`~repro.dist.DistResult` campaigns, job descriptors, and job
events -- must survive ``to_dict`` -> JSON ->
``from_dict`` without losing anything a consumer can observe, and every
message and ``Process`` argument of the worker fleet must survive the
pickling its pipes do (:class:`TestWireRoundTrip`).

Where a type embeds non-comparable state (exception objects inside
:class:`~repro.mc.explorer.ExplorationStats` and the run records that
hold one, visited tables inside ``DistResult``), the round trip is
pinned on the canonical document: ``from_dict(doc).to_dict() == doc``.
"""

import dataclasses
import json
import pickle
from multiprocessing.reduction import ForkingPickler

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.findings import Finding
from repro.analysis.oracle import FsckCorruptionError
from repro.core.integrity import DiscrepancyError
from repro.core.mcfs import MCFSResult
from repro.core.report import DiscrepancyReport, RunSummary
from repro.dist import protocol as dist_protocol
from repro.dist.coordinator import DistResult, WorkerSummary
from repro.dist.spec import CheckSpec
from repro.dist.worker import WorkerConfig
from repro.mc.explorer import ExplorationStats, PropertyViolation
from repro.mc.hashtable import TableStats, VisitedStateTable
from repro.mc.perf import CostProfile
from repro.mc.records import pack_records
from repro.server import protocol as server_protocol
from repro.server.protocol import JobDescriptor, JobEvent, SubmitRequest


def through_json(document):
    """Force an actual JSON round trip, not just a dict copy."""
    return json.loads(json.dumps(document, allow_nan=False))


# ------------------------------------------------ hypothesis strategies --

names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_-0123456789",
                min_size=1, max_size=12)
hashes = st.text(alphabet="0123456789abcdef", min_size=8, max_size=32)
finite_floats = st.floats(min_value=0.0, max_value=1e9,
                          allow_nan=False, allow_infinity=False, width=32)
counts = st.integers(min_value=0, max_value=10**9)

#: a minimal-but-valid DiscrepancyReport as the violation a run stops on
#: (anything richer is covered one layer down)
violations = st.one_of(
    st.none(),
    st.builds(
        lambda kind, summary: DiscrepancyError(
            DiscrepancyReport(kind=kind, summary=summary)),
        st.sampled_from(("outcome", "state", "corruption")), names),
)

unit_results = st.builds(
    MCFSResult,
    stats=st.builds(
        ExplorationStats,
        operations=counts,
        transitions=counts,
        unique_states=counts,
        revisited_states=counts,
        stopped_reason=names,
        violation=violations,
    ),
    sim_time=finite_floats,
    table_stats=st.builds(
        TableStats,
        omission_possible=st.booleans(),
        omission_probability=st.floats(min_value=0.0, max_value=1.0,
                                       allow_nan=False, width=32),
    ),
    bytes_snapshotted=counts,
    bytes_restored=counts,
    logical_snapshot_bytes=counts,
    trail_path=st.one_of(st.none(), names),
    cost_profile=st.one_of(st.none(), st.builds(CostProfile, states=counts)),
    index=st.integers(min_value=0, max_value=999),
    seed=st.integers(min_value=0, max_value=2**31),
    worker_id=names,
    wall_time=finite_floats,
    shipped_hashes=counts,
)

worker_summaries = st.builds(
    WorkerSummary,
    worker_id=names,
    units_completed=counts,
    operations=counts,
    sim_time=finite_floats,
    wall_time=finite_floats,
    alive_at_end=st.booleans(),
)

exploration_stats = st.builds(
    ExplorationStats,
    operations=counts,
    transitions=counts,
    unique_states=counts,
    revisited_states=counts,
    checkpoints=counts,
    restores=counts,
    por_pruned=counts,
    memo_hits=counts,
    restores_elided=counts,
    fsck_checks=counts,
    start_time=finite_floats,
    end_time=finite_floats,
    stopped_reason=names,
    samples=st.lists(
        st.tuples(finite_floats, counts, counts), max_size=4),
)


def _dist_result(unit_list, summaries, seen):
    table = VisitedStateTable()
    for index, state_hash in enumerate(seen):
        table.visit(state_hash, depth=index % 7)
    return DistResult(
        workers=max(1, len(summaries)),
        unit_results=sorted(unit_list, key=lambda unit: unit.index),
        table=table,
        worker_summaries=summaries,
        wall_time=0.25,
        recovered_units=1,
        stolen_units=2,
        inline_units=0,
    )


dist_results = st.builds(
    _dist_result,
    unit_list=st.lists(unit_results, max_size=3,
                       unique_by=lambda unit: unit.index),
    summaries=st.lists(worker_summaries, max_size=3),
    seen=st.sets(hashes, max_size=8),
)

job_descriptors = st.builds(
    JobDescriptor,
    job_id=names,
    tenant=names,
    priority=st.integers(min_value=-10, max_value=10),
    state=st.sampled_from(("queued", "running", "paused", "done",
                           "failed", "cancelled")),
    workers=st.integers(min_value=1, max_value=8),
    spec=st.just(CheckSpec(filesystems=("verifs1", "verifs2"))),
    requested_store=st.sampled_from(("exact", "hc:8", "bitstate:8192,3")),
    effective_store=st.sampled_from(("exact", "bitstate:8192,3")),
    store_forced=st.booleans(),
    submitted_vtime=finite_floats,
    started_vtime=st.one_of(st.none(), finite_floats),
    finished_vtime=st.one_of(st.none(), finite_floats),
    units_total=counts,
    units_done=counts,
    operations=counts,
    visited_states=counts,
    discrepancies=counts,
    trail_paths=st.lists(names, max_size=3),
    planned_store_bytes=counts,
    error=st.one_of(st.none(), names),
)

job_events = st.builds(
    JobEvent,
    kind=st.sampled_from(("submitted", "progress", "paused", "done")),
    job_id=names,
    seq=counts,
    vtime=finite_floats,
    payload=st.dictionaries(names, st.one_of(counts, names, st.booleans()),
                            max_size=4),
)

submit_requests = st.builds(
    SubmitRequest,
    spec=st.just(CheckSpec(filesystems=("verifs1", "verifs2"))),
    tenant=names,
    priority=st.integers(min_value=-10, max_value=10),
    workers=st.integers(min_value=1, max_value=8),
)


# ------------------------------------------------------------- the tests --

class TestMCFSResultRoundTrip:
    """A campaign unit's run record: its document keeps the unit keys
    every spool written so far carries."""

    @settings(max_examples=50)
    @given(unit_results)
    def test_round_trip_is_lossless(self, unit):
        document = through_json(unit.to_dict())
        assert MCFSResult.from_dict(document).to_dict() == unit.to_dict()
        assert set(document) == {
            "index", "seed", "worker_id", "operations", "transitions",
            "unique_states", "revisited_states", "sim_time", "wall_time",
            "stopped_reason", "violation", "shipped_hashes",
            "bytes_snapshotted", "bytes_restored", "logical_snapshot_bytes",
            "omission_possible", "omission_probability", "cost_profile",
            "trail_path"}

    def test_unknown_keys_are_ignored(self):
        document = MCFSResult(ExplorationStats(), index=1, seed=2,
                              worker_id="w0").to_dict()
        document["from_the_future"] = 42
        assert MCFSResult.from_dict(document).index == 1

    def test_missing_keys_fall_back_to_defaults(self):
        unit = MCFSResult.from_dict(
            {"index": 3, "seed": 9, "worker_id": "w1"})
        assert unit.omission_probability == 0.0
        assert unit.report is None


class TestWorkerSummaryRoundTrip:
    @settings(max_examples=50)
    @given(worker_summaries)
    def test_round_trip_is_lossless(self, summary):
        restored = WorkerSummary.from_dict(through_json(summary.to_dict()))
        assert restored == summary


class TestExplorationStatsRoundTrip:
    @settings(max_examples=50)
    @given(exploration_stats)
    def test_round_trip_is_lossless(self, stats):
        document = through_json(stats.to_dict())
        assert ExplorationStats.from_dict(document).to_dict() == \
            stats.to_dict()

    def test_violation_with_report_survives(self):
        from repro.core.integrity import DiscrepancyError
        from repro.core.report import DiscrepancyReport

        stats = ExplorationStats(violation=DiscrepancyError(
            DiscrepancyReport(kind="state", summary="states differ")))
        restored = ExplorationStats.from_dict(
            through_json(stats.to_dict()))
        assert isinstance(restored.violation, DiscrepancyError)
        assert restored.violation.report.summary == "states differ"

    def test_document_with_a_retired_field_loads(self):
        # documents written before ``max_depth_reached`` was dropped
        document = ExplorationStats(operations=5, restores=2).to_dict()
        document["max_depth_reached"] = 4
        stats = ExplorationStats.from_dict(through_json(document))
        assert (stats.operations, stats.restores) == (5, 2)
        assert "max_depth_reached" not in stats.to_dict()


class TestSwarmRoundTrip:
    """The swarm is the campaign: its document is a DistResult."""

    @settings(max_examples=25, deadline=None)
    @given(dist_results)
    def test_swarm_round_trip_preserves_derived_metrics(self, swarm):
        restored = DistResult.from_dict(through_json(swarm.to_dict()))
        assert restored.modeled_parallel_time == swarm.modeled_parallel_time
        assert restored.sequential_sim_time == swarm.sequential_sim_time
        assert restored.speedup == swarm.speedup
        # benchmarks/test_dist_scaling.py's modelled-scaling headline
        assert restored.states_per_second == swarm.states_per_second
        assert restored.omission_possible == swarm.omission_possible
        assert restored.omission_probability == swarm.omission_probability
        assert restored.bytes_snapshotted == swarm.bytes_snapshotted
        assert restored.found_discrepancy == swarm.found_discrepancy


#: a non-default value per declared field type; a field of a type not
#: listed here (or not overridden below) fails the test until it is
SAMPLE_BY_TYPE = {
    "int": 7,
    "float": 0.5,
    "str": "x",
    "Optional[int]": 3,
    "Optional[str]": "p",
    "Optional[Dict[str, Any]]": {"kind": "state", "summary": "s"},
    "List[str]": ["a"],
    "List[Tuple[float, int, int]]": [(0.5, 1, 2)],
}


def _every_field_set(cls, **overrides):
    values = {}
    for item in dataclasses.fields(cls):
        if item.name in overrides:
            values[item.name] = overrides[item.name]
        elif item.type == "bool":
            values[item.name] = item.default is not True
        else:
            values[item.name] = SAMPLE_BY_TYPE[item.type]
        assert values[item.name] != item.default, item.name
    return cls(**values)


class TestEveryResultFieldRoundTrips:
    def test_no_field_is_forgotten(self):
        """The result types (and the ones they embed) serialise from
        ``dataclasses.fields``: set every field to a non-default value
        and a field dropped by either direction shows up as a diff.  A
        unit's run record is pinned on its document
        (:meth:`test_no_run_record_field_is_forgotten`)."""
        table = VisitedStateTable()
        table.visit("ab" * 16, depth=2)
        unit = WIRE_RESULT
        worker = _every_field_set(WorkerSummary)
        for instance in (
            worker,
            _every_field_set(RunSummary),
            _every_field_set(ExplorationStats,
                             violation=PropertyViolation("boom")),
            _every_field_set(DistResult, unit_results=[unit],
                             worker_summaries=[worker], table=table),
        ):
            document = through_json(instance.to_dict())
            assert set(document) == {
                item.name for item in dataclasses.fields(instance)}
            restored = type(instance).from_dict(document)
            assert through_json(restored.to_dict()) == document
            # what holds an exception or a table is pinned on its document
            for item in dataclasses.fields(instance):
                if item.name not in ("violation", "table", "unit_results"):
                    assert getattr(restored, item.name) == \
                        getattr(instance, item.name), item.name

    def test_no_run_record_field_is_forgotten(self):
        """Every :class:`MCFSResult` field is a key of the unit document
        the spool and the server keep, or is named here as left out: a
        new field the document drops fails until it is one or the
        other.  ``stats`` and ``table_stats`` travel as the readings the
        unit keys name; ``coverage`` stays local to the CLI."""
        left_out = {"stats", "table_stats", "coverage"}
        readings = ("operations", "transitions", "unique_states",
                    "revisited_states", "stopped_reason",
                    "omission_possible", "omission_probability")
        record = _every_field_set(
            MCFSResult,
            stats=_every_field_set(ExplorationStats,
                                   violation=WIRE_RESULT.stats.violation),
            table_stats=TableStats(omission_possible=True,
                                   omission_probability=0.25),
            cost_profile=CostProfile(states=3),
            coverage=object(),
        )
        document = through_json(record.to_dict())
        fields = {item.name for item in dataclasses.fields(MCFSResult)}
        assert fields - left_out <= set(document)
        restored = MCFSResult.from_dict(document)
        assert through_json(restored.to_dict()) == document
        for name in (fields - left_out - {"cost_profile"}).union(readings):
            assert getattr(restored, name) == getattr(record, name), name
        assert restored.cost_profile.to_dict() == \
            record.cost_profile.to_dict()
        assert restored.report.to_dict() == record.report.to_dict()
        assert restored.coverage is None


class TestDistResultRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(dist_results)
    def test_round_trip_is_lossless(self, dist):
        document = through_json(dist.to_dict())
        restored = DistResult.from_dict(document)
        assert restored.to_dict() == dist.to_dict()
        assert restored.visited_states == dist.visited_states
        assert restored.total_operations == dist.total_operations
        assert restored.discrepancy_signature() == \
            dist.discrepancy_signature()
        assert restored.trail_paths == dist.trail_paths

    def test_real_campaign_round_trips(self):
        from repro.dist.coordinator import DistributedChecker

        spec = CheckSpec(filesystems=("verifs1", "verifs2"), units=2,
                         unit_operations=40, max_depth=6)
        dist = DistributedChecker(spec, workers=1).run()
        document = through_json(dist.to_dict())
        restored = DistResult.from_dict(document)
        assert restored.visited_states == dist.visited_states
        assert restored.to_dict()["unit_results"] == \
            document["unit_results"]

    def test_lossy_store_table_round_trips(self):
        from repro.mc.statestore import make_store

        table = make_store("bitstate:8192,3", seed=7)
        for state_hash in ("aa" * 16, "bb" * 16, "cc" * 16):
            table.visit(state_hash, depth=1)
        dist = DistResult(workers=1, table=table)
        restored = DistResult.from_dict(through_json(dist.to_dict()))
        assert len(restored.table) == len(table)
        assert restored.table.stats.omission_possible


class TestServerDocumentRoundTrip:
    @settings(max_examples=50)
    @given(job_descriptors)
    def test_descriptor_round_trip_is_lossless(self, descriptor):
        restored = JobDescriptor.from_dict(
            through_json(descriptor.to_dict()))
        assert restored == descriptor

    @settings(max_examples=50)
    @given(job_events)
    def test_event_round_trip_is_lossless(self, event):
        assert JobEvent.from_dict(through_json(event.to_dict())) == event

    @settings(max_examples=50)
    @given(submit_requests)
    def test_submit_round_trip_is_lossless(self, request):
        restored = SubmitRequest.from_dict(
            through_json(request.to_dict()))
        assert restored == request
        # and the embedded spec still builds a real campaign
        assert restored.spec.filesystems == ("verifs1", "verifs2")


# ------------------------------------------------------------- the wire --

WIRE_SPEC = CheckSpec(filesystems=("verifs1", "verifs2"),
                      verifs_bugs=("write-hole-stale",), units=4,
                      max_depth=9, state_store="bitstate:8192,3",
                      input_profile="boundary")
WIRE_UNIT = WIRE_SPEC.work_units()[1]
WIRE_FINDING = Finding("fsck.ext2", "block-leak", "block 9 leaked")
WIRE_RESULT = MCFSResult(
    stats=ExplorationStats(
        operations=40, unique_states=12, stopped_reason="property violation",
        violation=FsckCorruptionError(DiscrepancyReport(
            kind="corruption", summary="fsck oracle: 1 invariant violation",
            findings=[WIRE_FINDING]), [WIRE_FINDING])),
    sim_time=0.5,
    table_stats=TableStats(omission_possible=True, omission_probability=0.01),
    trail_path="trails/t.trail.json", cost_profile=CostProfile(states=12),
    index=1, seed=WIRE_UNIT.seed, worker_id="w1")
WIRE_BATCH = dist_protocol.RecordBatch(
    8, pack_records([(3, 1), (1 << 60, 9)], 8))


#: one representative instance of every dataclass that crosses a wire
WIRE = {
    dist_protocol.WorkRequest: dist_protocol.WorkRequest("w0"),
    dist_protocol.Heartbeat: dist_protocol.Heartbeat("w0", 1, 120),
    dist_protocol.RecordBatch: WIRE_BATCH,
    dist_protocol.UnitDone: dist_protocol.UnitDone(
        "w1", WIRE_RESULT.to_dict(), WIRE_BATCH),
    dist_protocol.WorkGrant: dist_protocol.WorkGrant(WIRE_UNIT),
    dist_protocol.Wait: dist_protocol.Wait(0.1),
    dist_protocol.NoMoreWork: dist_protocol.NoMoreWork(),
    dist_protocol.Shutdown: dist_protocol.Shutdown(),
    SubmitRequest: SubmitRequest(WIRE_SPEC, tenant="ci", priority=3,
                                 workers=2),
    JobDescriptor: JobDescriptor(
        job_id="job-1", tenant="ci", priority=3, state="running",
        workers=2, spec=WIRE_SPEC, requested_store="exact",
        effective_store="bitstate:8192,3", store_forced=True,
        started_vtime=1.5, units_total=4, trail_paths=["t.trail.json"],
        error="boom"),
    JobEvent: JobEvent("progress", "job-1", 7, 2.5, {"operations": 40}),
}

#: what a worker ``Process`` is started with besides its pipe end
PROCESS_ARGS = (WIRE_SPEC, WIRE_UNIT,
                WorkerConfig(chaos_kill_after_operations=50))


def wire_dataclasses(module):
    return sorted((value for value in vars(module).values()
                   if isinstance(value, type)
                   and dataclasses.is_dataclass(value)
                   and value.__module__ == module.__name__),
                  key=lambda cls: cls.__name__)


class TestWireRoundTrip:
    def test_every_protocol_dataclass_has_an_instance(self):
        for module in (dist_protocol, server_protocol):
            missing = [cls.__name__ for cls in wire_dataclasses(module)
                       if cls not in WIRE]
            assert not missing, f"add an instance of {missing} to WIRE"

    @pytest.mark.parametrize("value", [*WIRE.values(), *PROCESS_ARGS],
                             ids=lambda value: type(value).__name__)
    def test_pickles_through_the_pipe(self, value):
        # the pickler multiprocessing's pipes and Process arguments use
        assert pickle.loads(ForkingPickler.dumps(value)) == value

    def test_a_unit_record_crosses_as_its_document(self):
        """The record a unit stops on an fsck find holds an
        FsckCorruptionError, which does not unpickle (its ``args`` lack
        the findings); the pipe carries the record's document, and the
        coordinator rebuilds the record and its report from it."""
        done = pickle.loads(
            ForkingPickler.dumps(WIRE[dist_protocol.UnitDone]))
        record = done.result
        assert record.to_dict() == WIRE_RESULT.to_dict()
        assert record.report.kind == "corruption"
        assert record.report.findings == [WIRE_FINDING]
        assert record.trail_path == "trails/t.trail.json"

    @pytest.mark.parametrize("cls", wire_dataclasses(server_protocol),
                             ids=lambda cls: cls.__name__)
    def test_server_types_round_trip_json(self, cls):
        value = WIRE[cls]
        assert cls.from_dict(through_json(value.to_dict())) == value
