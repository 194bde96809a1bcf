"""Tests for discrepancy-report trace files (save / load / replay).

The property-test half of this file pins the lossless-round-trip
contract: any report MCFS can construct -- including state diffs, fsck
findings, voting suspects, and a full explorer schedule -- must survive
``to_dict`` -> JSON -> ``from_dict`` bit for bit.  Trail files depend on
this; a lossy round trip would silently change what a replay is asked to
reproduce.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import MCFS, MCFSOptions, SimClock, VeriFS1, VeriFS2, VeriFSBug
from repro.analysis.findings import Finding
from repro.core.integrity import Outcome, StateDiff
from repro.core.ops import Operation
from repro.core.report import (
    DiscrepancyReport,
    LoggedOperation,
    RunSummary,
    operation_from_dict,
    operation_to_dict,
    schedule_event_from_dict,
    schedule_event_to_dict,
)
from repro.errors import ENOENT
from repro.mc import trace


class TestOperationSerialization:
    def test_simple_roundtrip(self):
        operation = Operation("truncate", ("/f0", 2048))
        assert operation_from_dict(operation_to_dict(operation)) == operation

    def test_bytes_args_roundtrip(self):
        operation = Operation("setxattr", ("/f0", "user.k", b"\x00\xff bin"))
        restored = operation_from_dict(operation_to_dict(operation))
        assert restored == operation
        assert isinstance(restored.args[2], bytes)

    def test_dict_is_json_safe(self):
        import json
        operation = Operation("setxattr", ("/f0", "user.k", b"\x01\x02"))
        json.dumps(operation_to_dict(operation))  # must not raise


def _real_report() -> DiscrepancyReport:
    clock = SimClock()
    mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False))
    mcfs.add_verifs("verifs1", VeriFS1())
    mcfs.add_verifs("verifs2", VeriFS2(bugs=[VeriFSBug.SIZE_UPDATE_ON_CAPACITY_ONLY]))
    result = mcfs.run_dfs(max_depth=3, max_operations=100_000)
    assert result.found_discrepancy
    return result.report


class TestReportRoundtrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        report = _real_report()
        path = str(tmp_path / "trace.json")
        report.save(path)
        loaded = DiscrepancyReport.load(path)
        assert loaded.kind == report.kind
        assert loaded.summary == report.summary
        assert loaded.operations() == report.operations()
        assert loaded.operations_executed == report.operations_executed
        assert loaded.ending_states == report.ending_states
        for original, restored in zip(report.operation_log, loaded.operation_log):
            assert original.outcomes == restored.outcomes

    def test_loaded_trace_replays_and_reproduces(self, tmp_path):
        report = _real_report()
        path = str(tmp_path / "trace.json")
        report.save(path)
        loaded = DiscrepancyReport.load(path)

        clock = SimClock()
        fresh = MCFS(clock, MCFSOptions(include_extended_operations=False))
        fresh.add_verifs("verifs1", VeriFS1())
        fresh.add_verifs("verifs2",
                         VeriFS2(bugs=[VeriFSBug.SIZE_UPDATE_ON_CAPACITY_ONLY]))
        engine = fresh.engine()
        for operation in loaded.operations():
            for fut in engine.futs:
                engine.catalog.execute(fut, operation)
        options = fresh.options.abstraction
        states = [fut.abstract_state(options) for fut in engine.futs]
        assert states[0] != states[1]  # the bug reproduces from the trace

    def test_handcrafted_report_renders_after_roundtrip(self):
        report = DiscrepancyReport(
            kind="outcome",
            summary="a -> ok(0) but b -> error(ENOENT)",
            operation_log=[LoggedOperation(
                operation=Operation("unlink", ("/f0",)),
                outcomes={"a": Outcome.success(0), "b": Outcome.failure(ENOENT)},
            )],
            operations_executed=7,
            sim_time=1.25,
            suspects=["b"],
        )
        restored = DiscrepancyReport.from_dict(report.to_dict())
        text = str(restored)
        assert "ENOENT" in text
        assert "suspected culprit" in text
        assert "unlink" in text


# ------------------------------------------------ hypothesis strategies --

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)
paths = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789/._-", min_size=1,
    max_size=20)
hashes = st.text(alphabet="0123456789abcdef", max_size=32)
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
arg_values = st.one_of(
    st.integers(min_value=-2**31, max_value=2**31),
    st.binary(max_size=16),
    paths,
    st.booleans(),
    st.none(),
)

operations = st.builds(
    Operation,
    name=names,
    args=st.lists(arg_values, max_size=4).map(tuple),
)

outcomes = st.builds(
    Outcome,
    ok=st.booleans(),
    value=st.one_of(st.none(), st.integers(), st.binary(max_size=8)),
    errno=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
)

logged_operations = st.builds(
    LoggedOperation,
    operation=operations,
    outcomes=st.dictionaries(names, outcomes, max_size=3),
)

state_diffs = st.builds(
    StateDiff,
    only_in_first=st.lists(paths, max_size=3),
    only_in_second=st.lists(paths, max_size=3),
    attribute_mismatches=st.lists(paths, max_size=3),
    content_mismatches=st.lists(paths, max_size=3),
)

findings = st.builds(
    Finding,
    checker=names,
    invariant=names,
    message=paths,
    severity=st.sampled_from(("info", "warn", "error")),
    location=paths,
    detail=st.dictionaries(names, st.one_of(st.integers(), paths),
                           max_size=3),
)

schedule_events = st.one_of(
    operations.map(lambda op: (trace.OP, op)),
    st.just((trace.CHECK,)),
    st.just((trace.FSCK,)),
    st.integers(min_value=0, max_value=999).map(
        lambda n: (trace.CHECKPOINT, n)),
    st.integers(min_value=0, max_value=999).map(
        lambda n: (trace.RESTORE, n)),
)

reports = st.builds(
    DiscrepancyReport,
    kind=st.sampled_from(("outcome", "state", "corruption")),
    summary=paths,
    operation_log=st.lists(logged_operations, max_size=4),
    state_diff=st.one_of(st.none(), state_diffs),
    starting_state=hashes,
    ending_states=st.dictionaries(names, hashes, max_size=3),
    operations_executed=st.integers(min_value=0, max_value=10**6),
    sim_time=finite_floats,
    suspects=st.lists(names, max_size=3),
    findings=st.lists(findings, max_size=3),
    schedule=st.one_of(st.none(), st.lists(schedule_events, max_size=8)),
)

run_summaries = st.builds(
    RunSummary,
    operations=st.integers(min_value=0, max_value=10**9),
    unique_states=st.integers(min_value=0, max_value=10**9),
    sim_time=finite_floats,
    ops_per_second=finite_floats,
    stopped_reason=paths,
    revisited_states=st.integers(min_value=0, max_value=10**6),
    duplicate_hits=st.integers(min_value=0, max_value=10**6),
    duplicate_hit_ratio=finite_floats,
    fsck_checks=st.integers(min_value=0, max_value=10**6),
    show_fsck=st.booleans(),
    bytes_snapshotted=st.integers(min_value=0, max_value=10**12),
    bytes_restored=st.integers(min_value=0, max_value=10**12),
    snapshot_dedup_ratio=finite_floats,
    omission_possible=st.booleans(),
    omission_probability=finite_floats,
    store_bits_per_state=finite_floats,
    trail_path=st.one_of(st.none(), paths),
    minimized_operations=st.one_of(
        st.none(), st.integers(min_value=0, max_value=10**6)),
)


def through_json(document):
    """Force an actual JSON round trip, not just a dict copy."""
    return json.loads(json.dumps(document, allow_nan=False))


class TestScheduleEventRoundTrip:
    @settings(max_examples=50)
    @given(schedule_events)
    def test_round_trip(self, event):
        encoded = through_json(schedule_event_to_dict(event))
        assert schedule_event_from_dict(encoded) == event


class TestStateDiffRoundTrip:
    @settings(max_examples=50)
    @given(state_diffs)
    def test_round_trip(self, diff):
        assert StateDiff.from_dict(through_json(diff.to_dict())) == diff

    def test_from_dict_tolerates_missing_keys(self):
        assert StateDiff.from_dict({}) == StateDiff()


class TestDiscrepancyReportRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(reports)
    def test_round_trip_is_lossless(self, report):
        restored = DiscrepancyReport.from_dict(through_json(report.to_dict()))
        assert restored == report

    @settings(max_examples=25, deadline=None)
    @given(reports)
    def test_state_diff_and_schedule_survive(self, report):
        # the regression this class exists for: state_diff used to be
        # dropped by to_dict entirely
        restored = DiscrepancyReport.from_dict(through_json(report.to_dict()))
        assert restored.state_diff == report.state_diff
        assert restored.schedule == report.schedule

    def test_legacy_document_without_new_fields(self):
        # documents written before state_diff/schedule serialisation
        # existed must still load
        report = DiscrepancyReport.from_dict(
            {"kind": "state", "summary": "states differ"})
        assert report.state_diff is None
        assert report.schedule is None


class TestRunSummaryRoundTrip:
    @settings(max_examples=50)
    @given(run_summaries)
    def test_round_trip_is_lossless(self, summary):
        assert RunSummary.from_dict(through_json(summary.to_dict())) == summary

    @settings(max_examples=10)
    @given(run_summaries)
    def test_render_mentions_trail_when_set(self, summary):
        rendered = summary.render()
        if summary.trail_path:
            assert summary.trail_path in rendered
        if summary.minimized_operations is not None:
            assert "minimized" in rendered
