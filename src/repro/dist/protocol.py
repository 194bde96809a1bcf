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
:class:`UnitDone` carries the unit's run record
(:class:`~repro.core.mcfs.MCFSResult`, as its document) and every state
the unit found, packed into one :class:`RecordBatch`, so a worker killed mid-unit has
published nothing and its re-run publishes everything.

See ``docs/distributed.md`` for the full protocol walk-through and the
fault-tolerance semantics built on heartbeats and lease deadlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, Tuple

from repro.dist.spec import WorkUnit
from repro.mc.records import read_records

if TYPE_CHECKING:
    from repro.core.mcfs import MCFSResult


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


@dataclass(frozen=True)
class UnitDone:
    """A finished unit: its run record's document and the states it
    found.  The document is plain data, so nothing in the record has to
    unpickle (an ``FsckCorruptionError`` cannot)."""

    worker_id: str
    document: Dict[str, Any]
    batch: RecordBatch

    @property
    def result(self) -> MCFSResult:
        from repro.core.mcfs import MCFSResult

        return MCFSResult.from_dict(self.document)


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
