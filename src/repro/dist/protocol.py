"""Wire protocol between the coordinator and its worker fleet.

Messages are small frozen dataclasses pickled over
:class:`multiprocessing.Pipe` connections (one duplex pipe per worker).
The conversation is strictly client-driven except for shutdown:

* worker -> coordinator: :class:`WorkRequest`, :class:`Heartbeat`,
  :class:`UnitDone`
* coordinator -> worker: :class:`WorkGrant`, :class:`Wait`,
  :class:`NoMoreWork`, :class:`Shutdown`

The only message a worker ever blocks on is the reply to its own
:class:`WorkRequest`.  A finished unit is the one hand-off: its
:class:`UnitDone` carries the :class:`UnitResult` and every state the
unit found, packed into one :class:`RecordBatch`, so a worker killed
mid-unit has published nothing and its re-run publishes everything.

See ``docs/distributed.md`` for the full protocol walk-through and the
fault-tolerance semantics built on heartbeats and lease deadlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.dist.spec import WorkUnit
from repro.mc.records import read_records
from repro.util.fieldcodec import FieldCodec


# ------------------------------------------------------------------ worker --
@dataclass(frozen=True)
class WorkRequest:
    """The worker's local frontier drained; it wants a unit (or will steal)."""

    worker_id: str


@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness signal, sent every ``heartbeat_operations`` ops."""

    worker_id: str
    unit_index: int
    operations: int


@dataclass(frozen=True)
class RecordBatch:
    """A unit's locally-new ``(record key, depth)`` records, packed.

    Fixed-width records in ``payload`` (the :mod:`repro.mc.records`
    layout; its length gives the count), one opaque blob -- so pickling
    cost does not scale with per-entry Python objects.  A malformed
    payload raises :class:`~repro.mc.records.StoreFormatError` on read.
    """

    key_bytes: int
    payload: bytes

    def records(self) -> Iterator[Tuple[int, int]]:
        return read_records(self.payload, self.key_bytes)


@dataclass
class UnitResult(FieldCodec):
    """Everything a finished work unit reports back (and the merge keeps).

    Its :class:`~repro.util.fieldcodec.FieldCodec` document is the
    server wire and result-spool form.
    """

    index: int
    seed: int
    worker_id: str
    operations: int = 0
    transitions: int = 0
    unique_states: int = 0
    revisited_states: int = 0
    sim_time: float = 0.0
    wall_time: float = 0.0
    stopped_reason: str = ""
    #: serialised DiscrepancyReport (``to_dict()``) when the unit hit a bug
    violation: Optional[Dict[str, Any]] = None
    #: locally-new states the unit handed to the campaign's table
    shipped_hashes: int = 0
    #: snapshot traffic (defaulted so v1 result documents still load):
    #: bytes the COW checkpoint path physically copied / rewrote, and
    #: the full-copy volume it stood in for
    bytes_snapshotted: int = 0
    bytes_restored: int = 0
    logical_snapshot_bytes: int = 0
    #: lossy-store accounting (defaulted so older result documents still
    #: load): whether the unit's local store could omit states, and the
    #: final per-query probability of such an omission
    omission_possible: bool = False
    omission_probability: float = 0.0
    #: per-state cost breakdown (:meth:`repro.mc.perf.CostProfile.to_dict`
    #: form) when the campaign profiled; None otherwise
    cost_profile: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class UnitDone:
    """A finished unit: its result and the states it found."""

    worker_id: str
    result: UnitResult
    batch: RecordBatch


# ------------------------------------------------------------- coordinator --
@dataclass(frozen=True)
class WorkGrant:
    """A leased work unit; the lease is kept alive by heartbeats."""

    unit: WorkUnit


@dataclass(frozen=True)
class Wait:
    """No unit free right now (all leased out); ask again shortly."""

    seconds: float = 0.05


@dataclass(frozen=True)
class NoMoreWork:
    """Every unit has a result; the worker should exit cleanly."""


@dataclass(frozen=True)
class Shutdown:
    """Immediate stop (run aborted or complete)."""
