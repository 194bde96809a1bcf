"""Memory-bounded visited-state stores: footprint, endurance, and swarm.

Four experiments back the statestore release:

1. **Equal-coverage footprint** -- the same Ext2-vs-Ext4 DFS campaign
   under every store mode.  Hash compaction must explore the identical
   state space while holding >= 4x fewer store bytes than the exact
   table (a 4-byte fingerprint + depth slot vs a 40-byte exact entry).
2. **Figure-3 endurance** -- the two-week VeriFS random walk with the
   scaled RAM/swap model.  The exact table resizes and collapses into
   swap; bitstate reserves its array once, so the run must show **zero**
   resize events and a measurably deferred swap onset.
3. **Swarm union coverage** -- diversified bitstate members vs exact
   members under the same per-member memory budget.  Exact members die
   of OOM early; the bitstate fleet keeps exploring, and its union
   coverage must beat the exact fleet's.
4. **Bug parity** -- all four seeded VeriFS bugs, found in every store
   mode at the same operation count as the exact table.

Emits ``BENCH_statestore.json`` at the repo root.
"""

import json
from pathlib import Path

from conftest import record_result
from repro import (
    Ext2FileSystemType,
    Ext4FileSystemType,
    MCFS,
    MCFSOptions,
    ParameterPool,
    RAMBlockDevice,
    SimClock,
    VeriFS1,
    VeriFS2,
    VeriFSBug,
)
from repro.core.engine import MCFSTarget
from repro.mc.explorer import Explorer
from repro.mc.hashtable import AbstractVisitedTable, VisitedStateTable
from repro.mc.memory import MemoryModel
from repro.mc.statestore import BitstateTable, make_store

MB = 1 << 20
DEV_BYTES = 256 * 1024

STORE_MODES = ("exact", "hc", "bitstate:8388608,3")

LONGRUN_POOL = ParameterPool(
    file_paths=("/f0", "/f1", "/f2", "/f3", "/d0/f4", "/d1/f5"),
    dir_paths=("/d0", "/d1", "/d2"),
    write_offsets=(0, 1000, 4000),
    write_sizes=(512, 3000, 6000),
    truncate_sizes=(0, 100, 2048, 5000),
)

_json_payload = {}


# ------------------------------------------- 1. equal-coverage footprint --
def _ext_campaign(store: str) -> dict:
    clock = SimClock()
    mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False,
                                   state_store=store))
    mcfs.add_block_filesystem("ext2", Ext2FileSystemType(),
                              RAMBlockDevice(DEV_BYTES, clock=clock))
    mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                              RAMBlockDevice(DEV_BYTES, clock=clock))
    result = mcfs.run_dfs(max_depth=3, max_operations=2_000)
    assert not result.found_discrepancy, str(result.report)
    stats = result.table_stats
    return {
        "operations": result.operations,
        "unique_states": result.unique_states,
        "store_bytes": stats.stored_bytes,
        "bits_per_state": stats.bits_per_state,
        "omission_probability": stats.omission_probability,
    }


def test_equal_coverage_footprint(benchmark):
    def measure():
        return {store: _ext_campaign(store) for store in STORE_MODES}

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    exact, hc = rows["exact"], rows["hc"]
    ratio = exact["store_bytes"] / hc["store_bytes"]

    for store, row in rows.items():
        record_result(
            "State stores: Ext2 vs Ext4 DFS at equal coverage",
            f"{store:18s} {row['unique_states']:5d} states | "
            f"{row['store_bytes']:9d} store B | "
            f"{row['bits_per_state']:7.1f} bits/state | "
            f"omission p <= {row['omission_probability']:.2e}",
        )
    record_result("State stores: Ext2 vs Ext4 DFS at equal coverage",
                  f"hc footprint: {ratio:.1f}x smaller than exact "
                  f"(target >= 4x)")
    _json_payload["equal_coverage"] = {"modes": rows,
                                      "hc_vs_exact_ratio": ratio}

    # identical exploration in every mode: lossiness must not have
    # surfaced on this campaign
    for store in STORE_MODES[1:]:
        assert rows[store]["operations"] == exact["operations"], store
        assert rows[store]["unique_states"] == exact["unique_states"], store
    # the acceptance bar: >= 4x less store memory at equal coverage
    assert ratio >= 4.0, f"hc only {ratio:.1f}x smaller than exact"


# ------------------------------------------------ 2. Figure-3 endurance --
OPS_PER_DAY = 650
DAYS = 14


def _endurance(store: str) -> dict:
    clock = SimClock()
    mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False,
                                   pool=LONGRUN_POOL))
    mcfs.add_verifs("verifs1", VeriFS1())
    mcfs.add_verifs("verifs2", VeriFS2())
    target = MCFSTarget(mcfs.engine())
    memory = MemoryModel(clock=clock, ram_bytes=1400 * MB,
                         swap_bytes=30_000 * MB, state_bytes=MB,
                         locality=0.5)
    if store == "exact":
        visited = VisitedStateTable(memory=memory, initial_buckets=2048)
    else:
        visited = make_store(store, memory=memory)
    days = []
    for day in range(1, DAYS + 1):
        day_start = clock.now
        explorer = Explorer(target, clock, visited=visited, max_depth=64,
                            max_operations=OPS_PER_DAY, seed=100 + day)
        stats = explorer.run_random()
        assert stats.violation is None
        days.append({
            "day": day,
            "rate": stats.operations / (clock.now - day_start),
            "swap_bytes": memory.swap_used_bytes,
            "resizes": visited.stats.resizes,
        })
    swap_onset = next((d["day"] for d in days if d["swap_bytes"] > 0), None)
    return {
        "days": days,
        "resizes": days[-1]["resizes"],
        "swap_onset_day": swap_onset,
        "final_rate": days[-1]["rate"],
        "store_bytes": visited.stats.stored_bytes,
    }


def test_fig3_endurance_by_store(benchmark):
    def measure():
        return {"exact": _endurance("exact"),
                "bitstate": _endurance("bitstate:8388608,3")}

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    exact, bitstate = rows["exact"], rows["bitstate"]
    for store, row in rows.items():
        onset = row["swap_onset_day"]
        record_result(
            "Figure 3 endurance by store (650 ops/day, 14 days)",
            f"{store:9s} final rate {row['final_rate']:8.1f} ops/s | "
            f"resizes {row['resizes']:2d} | "
            f"swap onset day {onset if onset else 'never'}",
        )
    _json_payload["fig3_endurance"] = rows

    # bitstate's whole footprint is reserved up front: no resize stall
    # can ever occur, and the swap collapse is deferred past the run
    assert bitstate["resizes"] == 0
    assert exact["resizes"] > 0
    exact_onset = exact["swap_onset_day"]
    bitstate_onset = bitstate["swap_onset_day"]
    assert exact_onset is not None, "exact never swapped: model too small"
    assert bitstate_onset is None or bitstate_onset > exact_onset
    # free of resize stalls and swap decline, the bitstate run ends fast
    assert bitstate["final_rate"] > exact["final_rate"]


# -------------------------------------------- 3. swarm union coverage --
SWARM_MEMBERS = 4
MEMBER_BUDGET_STATES = 120  # RAM+swap per member, in full-state units
MEMBER_OPS = 1_500


class RecordingTable(AbstractVisitedTable):
    """Wrap a member's store, recording the full hashes it inserted
    (a lossy store cannot export its keys, and the union needs them)."""

    def __init__(self, inner: AbstractVisitedTable):
        self.inner = inner
        self.memory = inner.memory
        self.stats = inner.stats
        self.discovered = set()

    def visit(self, state_hash, depth=0):
        is_new, should_expand = self.inner.visit(state_hash, depth)
        if is_new:
            self.discovered.add(state_hash)
        return is_new, should_expand

    def __len__(self):
        return len(self.inner)


def _swarm_fleet(kind: str) -> dict:
    """Classic Holzmann swarm, built by hand: private per-member stores
    that never merge, so each member may hash with its own seed (a
    :mod:`repro.dist` fleet shares one seed -- its tables do merge)."""
    union = set()
    member_rows = []
    for index in range(SWARM_MEMBERS):
        seed = 1 + index * 7919
        clock = SimClock()
        mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False,
                                       pool=LONGRUN_POOL))
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("verifs2", VeriFS2())
        target = MCFSTarget(mcfs.engine())
        memory = MemoryModel(clock=clock,
                             ram_bytes=(MEMBER_BUDGET_STATES // 2) * MB,
                             swap_bytes=(MEMBER_BUDGET_STATES // 2) * MB,
                             state_bytes=MB, locality=0.5)
        if kind == "exact":
            store = VisitedStateTable(memory=memory)
        else:
            # per-member diversified hashing: members omit *different*
            # states, so the union recovers what one member loses
            store = BitstateTable(bits=1 << 20, k=3, seed=seed,
                                  memory=memory)
        visited = RecordingTable(store)
        explorer = Explorer(target, clock, visited=visited, max_depth=64,
                            max_operations=MEMBER_OPS, seed=seed)
        stats = explorer.run_random()
        union |= visited.discovered
        member_rows.append({
            "seed": seed,
            "coverage": len(visited.discovered),
            "stopped": stats.stopped_reason,
        })
    return {"members": member_rows, "union_coverage": len(union)}


def test_swarm_union_coverage(benchmark):
    def measure():
        return {"exact": _swarm_fleet("exact"),
                "bitstate": _swarm_fleet("bitstate")}

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    exact, bitstate = rows["exact"], rows["bitstate"]
    for kind, fleet in rows.items():
        stopped = {m["stopped"] for m in fleet["members"]}
        record_result(
            "Swarm union coverage at equal member memory budget",
            f"{kind:9s} union {fleet['union_coverage']:5d} states | "
            f"members stop: {', '.join(sorted(stopped))}",
        )
    _json_payload["swarm_union"] = rows

    # same budget: exact members OOM long before their operation budget,
    # the bitstate members never grow past their fixed arrays
    assert all(m["stopped"] == "out of memory" for m in exact["members"])
    assert all(m["stopped"] != "out of memory" for m in bitstate["members"])
    assert bitstate["union_coverage"] > exact["union_coverage"]


# ------------------------------------------------------- 4. bug parity --
BUG_CASES = [
    (VeriFSBug.TRUNCATE_STALE_DATA, 4),
    (VeriFSBug.MISSING_CACHE_INVALIDATION, 3),
    (VeriFSBug.WRITE_HOLE_STALE, 3),
    (VeriFSBug.SIZE_UPDATE_ON_CAPACITY_ONLY, 3),
]


def _bug_hunt(bug, depth, store):
    clock = SimClock()
    mcfs = MCFS(clock, MCFSOptions(include_extended_operations=False,
                                   state_store=store))
    if bug in (VeriFSBug.TRUNCATE_STALE_DATA,
               VeriFSBug.MISSING_CACHE_INVALIDATION):
        mcfs.add_block_filesystem("ext4", Ext4FileSystemType(),
                                  RAMBlockDevice(DEV_BYTES, clock=clock))
        mcfs.add_verifs("verifs1", VeriFS1(bugs=[bug]))
    else:
        mcfs.add_verifs("verifs1", VeriFS1())
        mcfs.add_verifs("verifs2", VeriFS2(bugs=[bug]))
    result = mcfs.run_dfs(max_depth=depth, max_operations=400_000)
    return {"found": result.found_discrepancy,
            "operations": result.operations}


def test_bug_parity_across_stores(benchmark):
    def measure():
        return {
            bug.value: {store: _bug_hunt(bug, depth, store)
                        for store in STORE_MODES}
            for bug, depth in BUG_CASES
        }

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for bug_name, by_store in rows.items():
        ops = by_store["exact"]["operations"]
        record_result(
            "Bug-discovery parity across store modes",
            f"{bug_name:30s} found in all modes at {ops} ops: "
            f"{all(r['found'] for r in by_store.values())}",
        )
    _json_payload["bug_parity"] = rows

    for bug_name, by_store in rows.items():
        exact_ops = by_store["exact"]["operations"]
        for store, row in by_store.items():
            assert row["found"], f"{bug_name} lost under {store}"
            assert row["operations"] == exact_ops, (bug_name, store)

    out_path = Path(__file__).resolve().parent.parent / "BENCH_statestore.json"
    out_path.write_text(json.dumps({
        "experiment": "memory-bounded visited-state stores",
        "config": {
            "store_modes": list(STORE_MODES),
            "endurance_days": DAYS,
            "endurance_ops_per_day": OPS_PER_DAY,
            "swarm_members": SWARM_MEMBERS,
            "swarm_member_budget_states": MEMBER_BUDGET_STATES,
        },
        **_json_payload,
    }, indent=2))
