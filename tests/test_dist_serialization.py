"""Lossless round-trip contracts for distributed & server documents.

The companion of ``tests/test_report_serialization.py`` one layer up the
stack: every document the campaign server ships over its wire or writes
to its spool -- unit results, worker summaries, merged
:class:`~repro.dist.DistResult` campaigns, job descriptors, and job
events -- must survive ``to_dict`` -> JSON ->
``from_dict`` without losing anything a consumer can observe.

Where a type embeds non-comparable state (exception objects inside
:class:`~repro.mc.explorer.ExplorationStats`, visited tables inside
``DistResult``), the round trip is pinned on the canonical document:
``from_dict(doc).to_dict() == doc``.
"""

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro.core.report import RunSummary
from repro.dist.coordinator import DistResult, WorkerSummary
from repro.dist.protocol import UnitResult
from repro.dist.spec import CheckSpec
from repro.mc.explorer import ExplorationStats, PropertyViolation
from repro.mc.hashtable import VisitedStateTable
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

#: a minimal-but-valid serialised DiscrepancyReport (from_dict tolerates
#: the legacy two-key form; anything richer is covered one layer down)
violations = st.one_of(
    st.none(),
    st.fixed_dictionaries({
        "kind": st.sampled_from(("outcome", "state", "corruption")),
        "summary": names,
    }),
)

unit_results = st.builds(
    UnitResult,
    index=st.integers(min_value=0, max_value=999),
    seed=st.integers(min_value=0, max_value=2**31),
    worker_id=names,
    operations=counts,
    transitions=counts,
    unique_states=counts,
    revisited_states=counts,
    sim_time=finite_floats,
    wall_time=finite_floats,
    stopped_reason=names,
    violation=violations,
    shipped_hashes=counts,
    suppressed_hashes=counts,
    bytes_snapshotted=counts,
    bytes_restored=counts,
    logical_snapshot_bytes=counts,
    omission_possible=st.booleans(),
    omission_probability=st.floats(min_value=0.0, max_value=1.0,
                                   allow_nan=False, width=32),
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
    max_depth_reached=st.integers(min_value=0, max_value=100),
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
        cross_worker_duplicates=3,
        trail_paths=["trails/a.trail.json"],
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
    spec=st.just(CheckSpec(filesystems=("verifs1", "verifs2")).to_dict()),
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
    spec=st.just(CheckSpec(filesystems=("verifs1", "verifs2")).to_dict()),
    tenant=names,
    priority=st.integers(min_value=-10, max_value=10),
    workers=st.integers(min_value=1, max_value=8),
)


# ------------------------------------------------------------- the tests --

class TestUnitResultRoundTrip:
    @settings(max_examples=50)
    @given(unit_results)
    def test_round_trip_is_lossless(self, unit):
        assert UnitResult.from_dict(through_json(unit.to_dict())) == unit

    def test_unknown_keys_are_ignored(self):
        document = UnitResult(index=1, seed=2, worker_id="w0").to_dict()
        document["from_the_future"] = 42
        assert UnitResult.from_dict(document).index == 1

    def test_missing_keys_fall_back_to_defaults(self):
        unit = UnitResult.from_dict(
            {"index": 3, "seed": 9, "worker_id": "w1"})
        assert unit.omission_probability == 0.0
        assert unit.violation is None


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
        """The four result types (and the two they embed) serialise from
        ``dataclasses.fields``: set every field to a non-default value
        and a field dropped by either direction shows up as a diff."""
        table = VisitedStateTable()
        table.visit("ab" * 16, depth=2)
        unit = _every_field_set(UnitResult)
        worker = _every_field_set(WorkerSummary)
        for instance in (
            unit,
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
            for item in dataclasses.fields(instance):
                if item.name not in ("violation", "table"):
                    assert getattr(restored, item.name) == \
                        getattr(instance, item.name), item.name


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
        assert CheckSpec.from_dict(restored.spec).filesystems == \
            ("verifs1", "verifs2")
