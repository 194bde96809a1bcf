"""The retired shared-memory data plane leaves no trace.

A fleet once rerouted visited-state traffic through ``/dev/shm``
segments.  Specs may still name a plane (``data_plane`` is accepted and
ignored), so what is pinned here is that naming one changes nothing:

* **gating** -- the retired tiered store is refused by the store grammar
  whatever plane the spec asks for;
* **crash safety** -- a SIGKILLed worker under a spec that asks for
  ``shm`` recovers to the workers=1 result, and no ``/dev/shm`` entry
  outlives the run.
"""

import dataclasses
import os

import pytest

from repro.dist import CheckSpec, DistributedChecker, WorkerConfig

SPEC = CheckSpec(
    filesystems=("verifs1", "verifs2"),
    units=4,
    base_seed=7,
    unit_operations=60,
    max_depth=6,
)

#: chaos ticks must fire well inside a 60-op unit
CHAOS_CONFIG = WorkerConfig(heartbeat_operations=20)


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


class TestPlaneGating:
    def test_tiered_store_cannot_force_shm(self):
        # the tiered store is retired: naming it is refused by the spec
        # grammar, and asking for the old plane does not get round that
        with pytest.raises(ValueError, match="expected exact"):
            run_fleet("shm", workers=2, store="tiered")


class TestCrashSafety:
    def _shm_entries(self):
        try:
            return set(os.listdir("/dev/shm"))
        except OSError:
            return set()

    def test_sigkill_recovery_matches_baseline_and_leaks_nothing(self):
        baseline = run_fleet("rpc", workers=1)
        before = self._shm_entries()
        fleet = run_fleet(
            "shm", workers=2, config=CHAOS_CONFIG,
            chaos_kill_after={"w1": 50},  # SIGKILL mid-unit
            lease_timeout=3.0,
        )
        assert outcome(fleet) == outcome(baseline)
        assert fleet.recovered_units >= 1
        leaked = self._shm_entries() - before
        assert not leaked, f"segments outlived the run: {sorted(leaked)}"
