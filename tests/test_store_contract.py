"""One visited-store contract, checked against every store kind.

Whatever a store is made of, the same insertion history must produce the
same store however it got there: visited one state at a time, in bulk,
rebuilt from a snapshot, merged from several shared-memory segments, or
fed a packed wire batch.  "Same" means equal ``visited_fingerprint()``,
``len`` and omission fields.  The matrix runs over all three kinds (hash
compaction at every width); the record codec underneath is pinned by
hypothesis properties, and malformed snapshots must fail with the typed
error rather than load partially.
"""

from __future__ import annotations

import copy
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.protocol import RecordBatch
from repro.dist.service import VisitedStateService
from repro.dist.spec import CheckSpec
from repro.mc.persistence import (
    FORMAT_VERSION,
    load_checker_state,
    save_checker_state,
    snapshot_document,
    snapshot_from_document,
)
from repro.mc.records import (
    DEPTH_MAX,
    StoreFormatError,
    pack_records,
    parse_store_spec,
    read_records,
)
from repro.mc.shardmem import ShardLayout, ShardSegment
from repro.mc.statestore import make_store
from repro.util.hashing import md5_hex

STORES = ["exact", "hc:2", "hc:4", "hc:8", "bitstate:65536,3"]
SEED = 11


def history(count=120, seed=5):
    """A deterministic visit history with revisits at varying depths:
    ``(state hash, depth)`` pairs, about a third of them duplicates."""
    rng = random.Random(seed)
    states = [md5_hex(f"state-{index}") for index in range(count)]
    visits = [(state, rng.randrange(12)) for state in states]
    visits += [(rng.choice(states), rng.randrange(12))
               for _ in range(count // 2)]
    rng.shuffle(visits)
    return visits


def build(spec):
    return make_store(spec, seed=SEED)


def visited(spec, visits):
    table = build(spec)
    for state_hash, depth in visits:
        table.visit(state_hash, depth)
    return table


def content(table):
    """What must agree between two stores that hold the same set."""
    return (table.visited_fingerprint(), len(table),
            table.stats.omission_possible, table.stats.omission_probability)


def shallowest(records):
    """The canonical union of a record stream: sorted, shallowest depth."""
    union = {}
    for key, depth in records:
        if key not in union or depth < union[key]:
            union[key] = depth
    return sorted(union.items())


def records_of(spec, visits):
    key_of = build(spec).record_key
    return [(key_of(state_hash), depth) for state_hash, depth in visits]


# ---------------------------------------------------------- contract matrix --
@pytest.mark.parametrize("spec", STORES)
class TestStoreContract:
    def test_shallower_revisit_reexpands(self, spec):
        table = build(spec)
        state = md5_hex("deep-then-shallow")
        assert table.visit(state, depth=5) == (True, True)
        assert table.visit(state, depth=5) == (False, False)
        assert table.visit(state, depth=7) == (False, False)
        assert table.visit(state, depth=2) == (False, True)
        assert table.visit(state, depth=3) == (False, False)
        assert state in table and len(table) == 1

    def test_visit_loop_equals_visit_many(self, spec):
        visits = history()
        looped, bulk = build(spec), build(spec)
        flags = [looped.visit(state_hash, depth)[0]
                 for state_hash, depth in visits]
        assert bulk.visit_many(records_of(spec, visits)) == flags
        assert content(bulk) == content(looped)
        assert bulk.stats.to_dict() == looped.stats.to_dict()

    def test_snapshot_round_trip_rebuilds_the_same_store(self, spec,
                                                         tmp_path):
        table = visited(spec, history())
        path = str(tmp_path / "state.json")
        save_checker_state(path, table, seed=SEED)
        rebuilt = load_checker_state(path).visited
        assert type(rebuilt) is type(table)
        assert content(rebuilt) == content(table)
        assert rebuilt.stats.to_dict() == table.stats.to_dict()
        # the document is a pure function of the set, not its history
        reordered = visited(spec, sorted(history()))
        assert (snapshot_document(reordered)["store"]
                == snapshot_document(table)["store"])

    def test_merged_segments_equal_the_in_process_store(self, spec):
        visits = history()
        layout = ShardLayout(512, parse_store_spec(spec).key_bytes)
        segments = [ShardSegment(layout,
                                 buffer=bytearray(layout.segment_bytes))
                    for _ in range(3)]
        for index, (key, depth) in enumerate(records_of(spec, visits)):
            segments[index % 3].insert(key, depth)
            if index % 7 == 0:  # duplicated territory across writers
                segments[(index + 1) % 3].insert(key, depth)
        merged = build(spec)
        merged.visit_many(shallowest(
            record for segment in segments for record in segment.entries()))
        assert content(merged) == content(visited(spec, visits))

    def test_packed_wire_batches_equal_the_in_process_store(self, spec):
        visits = history()
        records = records_of(spec, visits)
        key_bytes = parse_store_spec(spec).key_bytes
        service = VisitedStateService(store=spec, store_seed=SEED)
        for start in range(0, len(records), 16):
            chunk = records[start:start + 16]
            service.insert_packed(RecordBatch(
                "w0", len(chunk), key_bytes, pack_records(chunk, key_bytes)))
        reference = visited(spec, visits)
        assert content(service.table) == content(reference)
        # nothing is answered per record: what was already known is
        # counted at the service
        assert service.hashes_received == len(records)
        assert service.cross_worker_duplicates == \
            len(records) - len(reference)

    def test_merge_is_order_and_partition_independent(self, spec):
        visits = history()
        union = shallowest(records_of(spec, visits))
        reference = build(spec)
        reference.visit_many(union)
        rng = random.Random(3)
        for parts in (1, 2, 5):
            shuffled = records_of(spec, visits)
            rng.shuffle(shuffled)
            partitions = [shuffled[index::parts] for index in range(parts)]
            rng.shuffle(partitions)
            merged = build(spec)
            merged.visit_many(shallowest(
                record for part in partitions for record in part))
            assert content(merged) == content(reference)


# ------------------------------------------------------------ record codec --
key_widths = st.sampled_from([2, 4, 8, 16])


@st.composite
def record_lists(draw):
    key_bytes = draw(key_widths)
    keys = st.integers(min_value=0, max_value=(1 << (8 * key_bytes)) - 1)
    depths = st.integers(min_value=0, max_value=DEPTH_MAX)
    return key_bytes, draw(st.lists(st.tuples(keys, depths), max_size=40))


class TestRecordCodec:
    @given(record_lists())
    @settings(max_examples=60, deadline=None)
    def test_pack_then_read_round_trips(self, drawn):
        key_bytes, records = drawn
        payload = pack_records(records, key_bytes)
        assert len(payload) == len(records) * (key_bytes + 4)
        assert list(read_records(payload, key_bytes)) == records

    def test_depth_saturates_instead_of_wrapping(self):
        payload = pack_records([(1, DEPTH_MAX + 5)], 4)
        assert list(read_records(payload, 4)) == [(1, DEPTH_MAX)]

    @given(record_lists())
    @settings(max_examples=40, deadline=None)
    def test_shared_reader_scans_a_live_segment(self, drawn):
        """Reading a segment's raw buffer with the shared reader is
        exactly ``ShardSegment.entries()`` -- empty slots are skipped by
        the zero marker, not by segment-specific code."""
        key_bytes, records = drawn
        layout = ShardLayout(slots=128, key_bytes=key_bytes)
        backing = bytearray(layout.segment_bytes)
        segment = ShardSegment(layout, buffer=backing)
        for key, depth in records:
            segment.insert(key, depth)
        raw = list(read_records(bytes(backing), key_bytes))
        assert raw == list(segment.entries())
        assert sorted(raw) == shallowest(records)

    @pytest.mark.parametrize("key_bytes", [2, 4, 8, 16])
    def test_truncated_payload_is_refused(self, key_bytes):
        payload = pack_records([(1, 0), (2, 3)], key_bytes)
        for cut in (1, key_bytes, key_bytes + 3):
            with pytest.raises(StoreFormatError, match="record size"):
                list(read_records(payload[:-cut], key_bytes))


# ------------------------------------------------------ malformed snapshots --
def document_of(spec):
    return snapshot_document(visited(spec, history(count=10)), seed=SEED)


class TestMalformedSnapshots:
    def test_bare_version_fails_typed_not_keyerror(self):
        """``{"version": N}`` used to leak ``KeyError: 'buckets'``, which
        skipped ``load_checker_state``'s path prefix and killed the
        daemon's spool reload with a bare traceback."""
        with pytest.raises(StoreFormatError, match="'store'"):
            snapshot_from_document({"version": FORMAT_VERSION})

    def test_not_a_document(self):
        with pytest.raises(StoreFormatError, match="'version'"):
            snapshot_from_document([])

    @pytest.mark.parametrize("spec,field", [
        ("exact", "entries"), ("exact", "buckets"), ("exact", "seed"),
        ("hc:4", "fp_bytes"), ("hc:4", "kind"),
        ("bitstate:65536,3", "bits"), ("bitstate:65536,3", "k"),
        ("bitstate:65536,3", "depths"), ("bitstate:65536,3", "count"),
    ])
    def test_missing_store_field_is_named(self, spec, field):
        document = document_of(spec)
        del document["store"][field]
        with pytest.raises(StoreFormatError, match=repr(field)):
            snapshot_from_document(document)

    def test_missing_table_stats_is_named(self):
        document = document_of("exact")
        del document["table_stats"]
        with pytest.raises(StoreFormatError, match="'table_stats'"):
            snapshot_from_document(document)

    @pytest.mark.parametrize("spec", ["exact", "hc:2", "hc:4", "hc:8"])
    def test_entries_truncated_mid_record(self, spec):
        """A payload cut inside its last record used to load a garbage
        final entry."""
        document = document_of(spec)
        document["store"]["entries"] = document["store"]["entries"][:-2]
        with pytest.raises(StoreFormatError, match="entries"):
            snapshot_from_document(document)

    def test_entries_bit_flip_out_of_hex(self):
        document = document_of("hc:4")
        entries = document["store"]["entries"]
        flipped = chr(ord(entries[5]) ^ 0x40)  # a digit becomes 'p'..'y'
        document["store"]["entries"] = entries[:5] + flipped + entries[6:]
        with pytest.raises(StoreFormatError, match="entries"):
            snapshot_from_document(document)

    @pytest.mark.parametrize("field", ["array", "depths"])
    def test_bitstate_array_length_mismatch(self, field):
        """A short depth array used to be dropped without a word, losing
        the depth-bounded re-expansion memory."""
        document = document_of("bitstate:65536,3")
        document["store"][field] = document["store"][field][:-2]
        with pytest.raises(StoreFormatError, match=field):
            snapshot_from_document(document)

    def test_unknown_store_kind(self):
        document = document_of("exact")
        document["store"]["kind"] = "tiered"
        with pytest.raises(StoreFormatError, match="tiered"):
            snapshot_from_document(document)

    def test_load_prefixes_the_path(self, tmp_path):
        path = tmp_path / "spool-state.json"
        document = document_of("exact")
        del document["store"]["entries"]
        path.write_text(json.dumps(document))
        with pytest.raises(StoreFormatError,
                           match="spool-state.json.*'entries'"):
            load_checker_state(str(path))

    def test_intact_document_still_loads(self):
        document = document_of("hc:8")
        again = snapshot_from_document(copy.deepcopy(document))
        assert snapshot_document(again.visited, seed=SEED) == document


# ----------------------------------------------------- retired spec fields --
class TestRetiredSpecFields:
    def test_old_trail_specs_with_shards_still_load(self):
        """Trail files written before the shard count was retired embed
        ``"shards"`` in their spec; ``from_dict`` ignores unknown keys."""
        document = CheckSpec(filesystems=("verifs1", "verifs2")).to_dict()
        assert "shards" not in document
        document["shards"] = 4
        spec = CheckSpec.from_dict(document)
        assert spec == CheckSpec(filesystems=("verifs1", "verifs2"))

    def test_tiered_spec_is_refused_with_the_grammar(self):
        with pytest.raises(ValueError, match=r"expected exact \| "
                                             r"hc\[:bytes\] \| "
                                             r"bitstate\[:bits,k\]"):
            CheckSpec(filesystems=("verifs1", "verifs2"),
                      state_store="tiered:64")
