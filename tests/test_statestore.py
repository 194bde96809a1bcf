"""Memory-bounded visited-state stores (Spin -DBITSTATE / -DHC).

The per-kind behaviour every store must honour, lossy or not (the
kind-independent contract -- depth re-expansion, bulk visits, snapshot /
segment / wire equivalence -- is ``tests/test_store_contract.py``):

* **soundness** -- a store may *omit* states (report a fresh state as
  visited) but must never do so silently: any store whose hashing can
  collide reports ``omission_possible`` and a nonzero
  ``omission_probability`` the moment a collision is possible;
* **no invented hits without a collision** -- under an injective hash
  every first visit of a distinct state reports ``is_new=True``;
* **equal bug discovery** -- the four seeded VeriFS bugs are found in
  every store mode, at the same operation count as the exact table;
* **truthful accounting** -- each mode charges its real footprint to the
  memory model (bitstate reserves everything up front and never grows).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Ext4FileSystemType,
    MCFS,
    MCFSOptions,
    RAMBlockDevice,
    SimClock,
    VeriFS1,
    VeriFS2,
    VeriFSBug,
)
from repro.core.report import RunSummary
from repro.mc.explorer import Explorer
from repro.mc.hashtable import EXACT_ENTRY_BYTES, VisitedStateTable
from repro.mc.memory import MemoryModel
from repro.mc.persistence import (
    FORMAT_VERSION,
    save_checker_state,
    load_checker_state,
    snapshot_document,
    snapshot_from_document,
)
from repro.mc.records import StoreFormatError
from repro.mc.statestore import (
    BitstateTable,
    make_store,
    merge_into,
    parse_store_spec,
    store_from_document,
)
from repro.util.hashing import md5_hex

ALL_STORE_SPECS = ["exact", "hc", "bitstate:65536,3"]


def hashes(n, prefix="s"):
    """n distinct well-formed (hex MD5) state hashes."""
    return [md5_hex(f"{prefix}{i}") for i in range(n)]


# --------------------------------------------------------------- spec parsing
class TestParseStoreSpec:
    def test_defaults(self):
        assert parse_store_spec("exact").kind == "exact"
        spec = parse_store_spec("hc")
        assert (spec.kind, spec.fp_bytes) == ("hc", 4)
        spec = parse_store_spec("bitstate")
        assert spec.kind == "bitstate" and spec.bits > 0 and spec.k >= 1

    def test_parameters(self):
        assert parse_store_spec("hc:8").fp_bytes == 8
        spec = parse_store_spec("bitstate:65536,2")
        assert (spec.bits, spec.k) == (65536, 2)
        assert parse_store_spec("bitstate:1024").bits == 1024

    def test_describe_round_trips(self):
        for text in ("exact", "hc:8", "bitstate:65536,2"):
            spec = parse_store_spec(text)
            assert parse_store_spec(spec.describe()) == spec

    @pytest.mark.parametrize("bad", [
        "bogus", "exact:4", "hc:banana", "hc:3", "bitstate:x,y", "",
        # the retired hot/cold store is an unknown kind like any other
        "tiered:", "tiered", "tiered:64",
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_store_spec(bad)

    def test_unknown_kind_names_the_grammar(self):
        with pytest.raises(ValueError, match=r"expected exact \| "
                                             r"hc\[:bytes\] \| "
                                             r"bitstate\[:bits,k\]$"):
            parse_store_spec("tiered")

    def test_build_types(self):
        """Exact and hc are one class, told apart by key width only."""
        exact, compacted = make_store("exact"), make_store("hc:8")
        assert type(exact) is type(compacted) is VisitedStateTable
        assert (exact.key_bytes, compacted.key_bytes) == (16, 8)
        assert exact.exact and not compacted.exact
        assert isinstance(make_store("bitstate:65536,2"), BitstateTable)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            VisitedStateTable(key_bytes=3)
        with pytest.raises(ValueError):
            BitstateTable(bits=8)
        with pytest.raises(ValueError):
            BitstateTable(k=0)


# ---------------------------------------------------------- soundness (PBT)
def injective_digest(state_hash: str) -> bytes:
    """A fake digest assigning every hash its own disjoint bit range.

    ``first = index * 64`` with ``second = 1`` makes state ``i`` use bit
    positions ``64i .. 64i+k-1`` -- no two distinct states can ever
    share a bit (or a fingerprint prefix), so a lossy store has no
    excuse to invent a visited hit.
    """
    index = int(state_hash[1:]) if state_hash[0] == "x" else int(state_hash, 16)
    return (index * 64).to_bytes(8, "little") + (1).to_bytes(8, "little")


def colliding_digest(state_hash: str) -> bytes:
    """Every state hashes to the same digest: a guaranteed collision."""
    return b"\x2a" * 16


LOSSY_BUILDERS = [
    pytest.param(lambda fn: VisitedStateTable(key_bytes=8, digest_fn=fn),
                 id="hc"),
    pytest.param(lambda fn: BitstateTable(bits=1 << 20, k=3, digest_fn=fn),
                 id="bitstate"),
]


class TestSoundness:
    @pytest.mark.parametrize("build", LOSSY_BUILDERS)
    @given(count=st.integers(min_value=1, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_never_invents_hits_without_collisions(self, build, count):
        """Under an injective hash, every distinct state is new."""
        table = build(injective_digest)
        for i in range(count):
            is_new, should_expand = table.visit(f"x{i}", depth=i % 5)
            assert is_new and should_expand
        assert table.stats.inserts == count

    @pytest.mark.parametrize("build", LOSSY_BUILDERS)
    @given(count=st.integers(min_value=3, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_collisions_are_never_silent(self, build, count):
        """A forced collision omits states -- and the stats must say so."""
        table = build(colliding_digest)
        new_states = sum(1 for i in range(count)
                         if table.visit(f"x{i}")[0])
        assert new_states < count  # states were omitted...
        assert table.stats.omission_possible  # ...and the store admits it
        assert table.stats.omission_probability > 0.0

    def test_exact_table_reports_no_omission(self):
        table = VisitedStateTable()
        for state_hash in hashes(50):
            table.visit(state_hash)
        assert not table.stats.omission_possible
        assert table.stats.omission_probability == 0.0


# -------------------------------------------------------------- bitstate
class TestBitstate:
    def test_zero_growth_after_init(self):
        """The whole footprint is reserved up front -- Figure 3's swap
        collapse cannot creep up on a bitstate run."""
        memory = MemoryModel(clock=SimClock(), ram_bytes=1 << 30,
                             swap_bytes=1 << 30, state_bytes=1 << 20)
        table = BitstateTable(bits=1 << 16, memory=memory)
        initial = memory.stored_bytes
        assert initial == table.stats.stored_bytes > 0
        for state_hash in hashes(500):
            table.visit(state_hash)
        assert memory.stored_bytes == initial  # not one byte more
        assert table.stats.resizes == 0

    def test_depth_reexpansion(self):
        """A state re-reached shallower must be re-expanded (else the
        bounded search silently truncates frontier subtrees)."""
        table = BitstateTable(bits=1 << 16)
        state = md5_hex("deep-then-shallow")
        assert table.visit(state, depth=3) == (True, True)
        assert table.visit(state, depth=3) == (False, False)
        assert table.visit(state, depth=1) == (False, True)
        assert table.visit(state, depth=2) == (False, False)

    def test_wire_key_is_int(self):
        table = BitstateTable(bits=1 << 16, seed=5)
        state = md5_hex("wire")
        key = table.record_key(state)
        assert key == int(state, 16)  # the whole digest, unseeded
        # a shipped record key lands on the same (seed-mixed) bits
        table.visit(state)
        assert table.visit_many([(key, 0)]) == [False]

    def test_merge_requires_same_parameters(self):
        a = BitstateTable(bits=1 << 16, k=3)
        with pytest.raises(ValueError):
            a.merge_from(BitstateTable(bits=1 << 16, k=2))
        with pytest.raises(ValueError):
            a.merge_from(BitstateTable(bits=1 << 16, k=3, seed=9))

    def test_merge_unions_bits_and_depths(self):
        a, b = BitstateTable(bits=1 << 16), BitstateTable(bits=1 << 16)
        left, right = hashes(20, "left"), hashes(20, "right")
        for state_hash in left:
            a.visit(state_hash, depth=2)
        for state_hash in right:
            b.visit(state_hash, depth=1)
        a.merge_from(b)
        for state_hash in left + right:
            assert state_hash in a


# ------------------------------------------------------- hash compaction
class TestHashCompaction:
    def test_entry_is_5x_smaller_than_exact(self):
        table = VisitedStateTable(key_bytes=4)
        assert EXACT_ENTRY_BYTES / table.entry_bytes == 5.0
        for state_hash in hashes(100):
            table.visit(state_hash)
        assert table.stats.stored_bytes == 100 * table.entry_bytes
        assert table.stats.bits_per_state == table.entry_bytes * 8

    def test_memory_charged_in_entry_bytes(self):
        memory = MemoryModel(clock=SimClock(), ram_bytes=1 << 30,
                             swap_bytes=1 << 30, state_bytes=1 << 20)
        table = VisitedStateTable(key_bytes=4, memory=memory)
        for state_hash in hashes(100):
            table.visit(state_hash)
        assert memory.stored_bytes == 100 * table.entry_bytes

    def test_wire_key_round_trip(self):
        """The service matches on fingerprints a worker pre-compacted."""
        table = VisitedStateTable(key_bytes=8, seed=42)
        state = md5_hex("shipped")
        fingerprint = table.record_key(state)
        assert 0 <= fingerprint < 1 << 64
        assert table.visit_many([(fingerprint, 0)]) == [True]
        assert table.visit(state)[0] is False  # same state, either form

    def test_depth_reexpansion(self):
        table = make_store("hc")
        state = md5_hex("hc-depth")
        assert table.visit(state, depth=4) == (True, True)
        assert table.visit(state, depth=2) == (False, True)
        assert table.visit(state, depth=3) == (False, False)

    def test_resizes_are_counted(self):
        table = VisitedStateTable(key_bytes=4, initial_buckets=8)
        for state_hash in hashes(100):
            table.visit(state_hash)
        assert table.stats.resizes > 0


# ------------------------------------------------------------- merge_into
class TestMergeInto:
    @pytest.mark.parametrize("spec", ["hc", "bitstate:65536,3"])
    def test_exact_source_merges_into_any_store(self, spec):
        source = VisitedStateTable()
        for state_hash in hashes(25):
            source.visit(state_hash)
        destination = make_store(spec)
        assert merge_into(destination, source) == 25
        for state_hash in hashes(25):
            assert destination.visit(state_hash)[0] is False

    def test_lossy_kind_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            merge_into(make_store("hc"), BitstateTable(bits=1 << 16))
        with pytest.raises(ValueError):  # fingerprints cannot be widened
            merge_into(make_store("hc:8"), make_store("hc:4"))
        with pytest.raises(ValueError):
            merge_into(make_store("exact"), make_store("hc"))

    def test_same_kind_merges(self):
        a, b = make_store("hc", seed=5), make_store("hc", seed=5)
        for state_hash in hashes(10, "a"):
            a.visit(state_hash)
        for state_hash in hashes(10, "b"):
            b.visit(state_hash)
        assert merge_into(a, b) == 10
        assert len(a) == 20


# ------------------------------------------------------------ persistence
class TestPersistenceV3:
    """Snapshots of the lossy kinds (the class name predates the single
    format: every kind now writes the same versioned document)."""

    @pytest.mark.parametrize("spec", ["hc:8", "bitstate:65536,3"])
    def test_round_trip(self, tmp_path, spec):
        path = str(tmp_path / "state.json")
        table = make_store(spec, seed=7)
        for i, state_hash in enumerate(hashes(40)):
            table.visit(state_hash, depth=i % 4)
        save_checker_state(path, table, operations_completed=123, runs=2,
                           seed=7, worker_id="w1")
        snapshot = load_checker_state(path)
        assert snapshot.operations_completed == 123
        assert snapshot.runs == 2
        assert snapshot.worker_id == "w1"
        assert type(snapshot.visited) is type(table)
        assert snapshot.table_stats.omission_possible
        # resumed store still knows every state
        for state_hash in hashes(40):
            assert snapshot.visited.visit(state_hash, depth=10)[0] is False

    @pytest.mark.parametrize("spec", ALL_STORE_SPECS)
    def test_every_kind_writes_the_one_format(self, spec):
        table = make_store(spec)
        table.visit(md5_hex("one"))
        document = snapshot_document(table)
        assert document["version"] == FORMAT_VERSION
        assert document["store"]["kind"] == parse_store_spec(spec).kind
        assert "seen" not in document and "buckets" not in document

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_versions_are_refused(self, version):
        """v1/v2 ``seen`` maps and v3 ``store`` records are no longer
        read: the refusal is typed and names the version it saw."""
        document = {"version": version, "buckets": 1024,
                    "seen": {md5_hex("old"): 2},
                    "store": {"kind": "hc", "fp_bytes": 4, "seen": {}},
                    "operations_completed": 5, "runs": 1}
        with pytest.raises(StoreFormatError, match=f"version {version}"):
            snapshot_from_document(document)

    def test_bitstate_depth_slots_survive(self):
        table = BitstateTable(bits=1 << 16)
        state = md5_hex("frontier")
        table.visit(state, depth=3)
        restored = store_from_document(table.store_document())
        # the restored store remembers depth 3: shallower re-reach still
        # triggers re-expansion after a resume
        assert restored.visit(state, depth=1) == (False, True)

    def test_unknown_store_kind_rejected(self):
        with pytest.raises(StoreFormatError, match="martian"):
            store_from_document({"kind": "martian"})


# ------------------------------------------------- satellite: clear() stats
class TestClearResetsEverything:
    def test_clear_zeroes_stats_and_buckets(self):
        """A cleared table reporting stale inserts/resizes poisons every
        rate derived from its stats (the bug this release fixes)."""
        memory = MemoryModel(clock=SimClock(), ram_bytes=1 << 30,
                             swap_bytes=1 << 30, state_bytes=1 << 20)
        table = VisitedStateTable(memory=memory, initial_buckets=8)
        events = []
        table.resize_hooks.append(events.append)
        for state_hash in hashes(50):
            table.visit(state_hash)
            table.visit(state_hash)  # a duplicate hit each
        assert table.stats.resizes > 0
        table.clear()
        assert len(table) == 0
        assert table.buckets == 8
        assert table.stats.inserts == 0
        assert table.stats.duplicate_hits == 0
        assert table.stats.resizes == 0
        assert table.stats.stored_bytes == 0
        assert memory.stored_bytes == 0
        assert events[-1] == 8  # hooks saw the shrink

    def test_sticky_omission_mode_survives_reset(self):
        table = BitstateTable(bits=1 << 16)
        table.stats.reset()
        assert table.stats.omission_possible  # mode, not traffic


# ------------------------------------------------------------ swarm wiring
class TestSwarmStores:
    """A fleet's members keep private stores of the campaign's kind and
    report what those could have omitted."""

    @staticmethod
    def _swarm(store):
        from repro.dist import CheckSpec, DistributedChecker

        spec = CheckSpec(filesystems=("verifs1", "verifs2"), units=3,
                         max_depth=3, unit_operations=40, state_store=store)
        return DistributedChecker(spec, workers=0).run()

    def test_lossy_members_report_omission(self):
        result = self._swarm("hc")
        assert result.omission_possible
        assert all(unit.omission_possible for unit in result.unit_results)

    def test_exact_swarm_reports_no_omission(self):
        result = self._swarm("exact")
        assert not result.omission_possible
        assert result.omission_probability == 0.0


# ------------------------------------------------ end-to-end bug discovery
def build_mcfs(bug, store):
    clock = SimClock()
    mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False,
                                   state_store=store))
    if bug in (VeriFSBug.TRUNCATE_STALE_DATA,
               VeriFSBug.MISSING_CACHE_INVALIDATION):
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(256 * 1024, clock=clock))
        mcfs.add_verifs("verifs1", VeriFS1(bugs=[bug]))
    else:
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("verifs2", VeriFS2(bugs=[bug]))
    return mcfs


BUG_DEPTHS = [
    (VeriFSBug.TRUNCATE_STALE_DATA, 4),
    (VeriFSBug.MISSING_CACHE_INVALIDATION, 3),
    (VeriFSBug.WRITE_HOLE_STALE, 3),
    (VeriFSBug.SIZE_UPDATE_ON_CAPACITY_ONLY, 3),
]


class TestBugDiscoveryAcrossStores:
    @pytest.mark.parametrize("bug,depth", BUG_DEPTHS,
                             ids=[b.value for b, _ in BUG_DEPTHS])
    def test_every_store_finds_every_bug(self, bug, depth):
        """The acceptance bar: identical bug discovery in every mode --
        same bug, same operation count as the exact table."""
        exact = build_mcfs(bug, "exact").run_dfs(max_depth=depth,
                                                 max_operations=400_000)
        assert exact.found_discrepancy
        for store in ALL_STORE_SPECS[1:]:
            result = build_mcfs(bug, store).run_dfs(max_depth=depth,
                                                    max_operations=400_000)
            assert result.found_discrepancy, f"{bug.value} lost under {store}"
            assert result.operations == exact.operations

    def test_lossy_result_carries_omission(self):
        mcfs = build_mcfs(VeriFSBug.MISSING_CACHE_INVALIDATION, "hc")
        result = mcfs.run_dfs(max_depth=3, max_operations=10_000)
        assert result.omission_possible
        assert result.table_stats.bits_per_state < EXACT_ENTRY_BYTES * 8
        summary = RunSummary.from_result(result)
        assert summary.omission_possible
        assert "LOSSY" in summary.render()

    def test_exact_result_renders_without_store_line(self):
        mcfs = build_mcfs(VeriFSBug.MISSING_CACHE_INVALIDATION, "exact")
        result = mcfs.run_dfs(max_depth=2, max_operations=5_000)
        assert not result.omission_possible
        assert "LOSSY" not in RunSummary.from_result(result).render()


# ------------------------------------------------- satellite: explorer fix
class TestExplorerBudgetAccounting:
    def test_budget_checked_once_per_action(self):
        """_dfs used to evaluate the budget twice per loop iteration;
        the check must stay de-duplicated (once per node entry plus once
        per action)."""
        from tests.test_mc_engine import CounterTarget

        calls = []
        clock = SimClock()
        explorer = Explorer(CounterTarget(limit=4, clock=clock), clock,
                            max_depth=3, max_operations=50)
        original = explorer._budget_exceeded

        def counting():
            calls.append(1)
            return original()

        explorer._budget_exceeded = counting
        stats = explorer.run_dfs()
        # one check per node entry plus one per attempted action; the
        # old double-call per action would exceed this bound
        assert len(calls) <= 2 * stats.transitions + 2
        assert stats.stopped_reason
