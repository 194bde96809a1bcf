"""The shared visited-state service (coordinator side).

One authoritative store backs the whole fleet; workers talk to it
through batched insert RPCs, one packed
:class:`~repro.dist.protocol.RecordBatch` per flush (a fleet of zero
calls :meth:`VisitedStateService.insert_batch` directly).
Keeping the store shared is what lets the merged run report a true
union -- workers' duplicated territory is detected here instead of
inflating the state count -- and is the repro-side answer to "Reducing
State Explosion for Software Model Checking"'s observation that a shared
visited set stops workers re-exploring each other's ground.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.dist.protocol import RecordBatch
from repro.mc.hashtable import AbstractVisitedTable, Record
from repro.mc.persistence import snapshot_from_document
from repro.mc.statestore import make_store, merge_into


class VisitedStateService:
    """Answers batched insert requests against one global table.

    ``store`` picks the authoritative table's kind (the
    :mod:`repro.mc.records` spec grammar).  ``store_seed`` must match
    the workers' local stores so the record keys both sides derive
    agree.
    """

    def __init__(self, table: Optional[AbstractVisitedTable] = None,
                 store: str = "exact", store_seed: int = 0):
        if table is not None:
            self.table = table
        else:
            self.table = make_store(store, seed=store_seed)
        self.hashes_received = 0
        #: records the table already held when they arrived: shipped
        #: by another worker, by another unit of the same worker, by a
        #: re-run of a recovered unit, or loaded from a resumed
        #: snapshot.  The name is historical: a fleet of zero counts
        #: them too.
        self.cross_worker_duplicates = 0

    # ------------------------------------------------------------- inserts --
    def insert_batch(self, records: Iterable[Record]) -> List[bool]:
        """Insert ``(record key, depth)`` pairs; return per-entry
        ``is_new`` flags.

        Entries arrive in the worker's (deterministic) discovery order;
        only membership matters for the merge, so the table's content is
        interleaving-independent even though its insertion order is not.
        """
        flags = self.table.visit_many(records)
        self.cross_worker_duplicates += len(flags) - sum(flags)
        self.hashes_received += len(flags)
        return flags

    def insert_packed(self, batch: RecordBatch) -> None:
        """The data plane's entry point: read the payload once and
        bulk-visit; a malformed payload raises ``StoreFormatError``.
        Nothing goes back to the worker -- records the table already
        held are counted here, in ``cross_worker_duplicates``."""
        self.insert_batch(batch.records())

    # ----------------------------------------------------------- snapshots --
    def import_snapshot(self, document: Dict[str, Any]) -> int:
        """Merge a persistence snapshot document into the table.

        Used for resuming a paused campaign.  Returns how many states
        were new; merging is idempotent.  Lossy snapshots merge natively
        -- bit arrays OR together, fingerprint maps union -- provided
        the snapshot's store parameters match the service's.
        """
        snapshot = snapshot_from_document(document)
        added = merge_into(self.table, snapshot.visited)
        return added

    def __len__(self) -> int:
        return len(self.table)
