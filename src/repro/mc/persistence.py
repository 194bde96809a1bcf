"""Persisting checker state to resume interrupted runs (§7 future work).

The paper: "We are also working on APIs that will checkpoint file system
states to help us resume the model-checking process if an interruption
occurs (e.g., due to a kernel crash)."

What must survive an interruption is the checker's *knowledge*: the
visited-state table (abstract hashes and their shallowest depths) plus
enough bookkeeping to continue counting meaningfully.  Concrete
file-system state does NOT need to survive -- a resumed run starts from
freshly formatted file systems, and the visited table prevents
re-exploring everything it already covered.

Format: a single JSON document, versioned, written atomically (tmp file
+ rename) so a crash during save never corrupts the previous snapshot.
Every store kind writes the same container::

    {"version": 4,
     "store": {"kind": ..., <parameters>, "entries": "<packed hex>"},
     "table_stats": {...}, "operations_completed": N, "runs": N,
     "seed": ..., "worker_id": ..., "frontier": [...]}

``store`` is the store's own record: keyed tables (exact, hc) carry
their sorted ``(key, depth)`` records in the :mod:`repro.mc.records`
layout, hex-encoded; bitstate carries its two arrays.  ``table_stats``
restores the traffic counters so a resumed run's duplicate-hit ratio is
meaningful; ``seed``/``worker_id`` say whose work a snapshot covers;
``frontier`` is the campaign server's pause hook.

Documents of any other version -- including the v1/v2/v3 forms earlier
releases wrote -- are refused with :class:`StoreFormatError`, as is any
document with a missing or malformed field: a snapshot loads whole or
not at all.

**The resume rule.**  Every resumable run -- ``MCFS.run_dfs`` /
``run_random`` with a ``state_file``, a ``DistributedChecker`` with one,
and a paused campaign the server resumes -- loads the snapshot's table,
persisted counters included, *as* the run's table; nothing is merged.
Passing the run's ``store`` spec and ``seed`` to
:func:`snapshot_from_document` / :func:`load_checker_state` refuses,
with :class:`StoreFormatError`, a snapshot whose store would key states
differently: another kind, fingerprint width or bits/k, or -- for the
lossy kinds, whose keys and bit positions are seed-mixed -- another
seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.mc.hashtable import AbstractVisitedTable, TableStats
from repro.mc.records import StoreFormatError, parse_store_spec, require
from repro.mc.statestore import store_from_document

FORMAT_VERSION = 4


@dataclass
class CheckerSnapshot:
    """Everything persisted between runs."""

    visited: AbstractVisitedTable
    operations_completed: int = 0
    runs: int = 1
    #: exploration seed the snapshot belongs to
    seed: Optional[int] = None
    #: distributed worker that produced the snapshot
    worker_id: Optional[str] = None
    #: pending work-unit indices at pause time (the campaign server's
    #: pause/resume hook): a paused campaign serialises its visited
    #: store *and* the frontier of not-yet-run units, so resume -- in
    #: the same daemon or after a restart -- re-derives exactly the
    #: remaining work from the spec.  None for snapshots of completed
    #: or non-job runs.
    frontier: Optional[List[int]] = None


def snapshot_document(visited: AbstractVisitedTable,
                      operations_completed: int = 0, runs: int = 1,
                      seed: Optional[int] = None,
                      worker_id: Optional[str] = None,
                      frontier: Optional[List[int]] = None) -> Dict[str, Any]:
    """Build the (JSON-serialisable) snapshot document.

    Shared by :func:`save_checker_state`, a serialised campaign result
    (``DistResult.to_dict``) and the campaign server's spool.  Fleet
    workers ship no documents: they send packed ``RecordBatch`` records
    over their pipes.
    """
    store_document = getattr(visited, "store_document", None)
    if store_document is None:
        raise ValueError(
            f"{type(visited).__name__} does not support persistence "
            f"(no store_document)"
        )
    document = {
        "version": FORMAT_VERSION,
        "store": store_document(),
        "operations_completed": operations_completed,
        "runs": runs,
        "seed": seed,
        "worker_id": worker_id,
        "table_stats": visited.stats.to_dict(),
    }
    if frontier is not None:
        document["frontier"] = [int(index) for index in frontier]
    return document


def _require_same_keys(visited: AbstractVisitedTable, store: str,
                       seed: int) -> None:
    """The resume rule's refusal: ``visited`` must key states exactly as
    a fresh ``store`` table seeded with ``seed`` would."""
    wanted = parse_store_spec(store)
    if visited.spec == wanted and (wanted.kind == "exact"
                                   or visited.seed == seed):
        return
    raise StoreFormatError(
        f"store: the snapshot holds a {visited.spec.describe()} store "
        f"(seed {visited.seed}) but this run keys states as "
        f"{wanted.describe()} (seed {seed}); resume with the store spec "
        f"and seed that wrote it")


def snapshot_from_document(document: Dict[str, Any], memory=None,
                           store: Optional[str] = None,
                           seed: int = 0) -> CheckerSnapshot:
    """Rebuild a :class:`CheckerSnapshot`; malformed input of any shape
    raises :class:`StoreFormatError`.

    ``store``/``seed`` are the resuming run's store spec and store seed:
    given, a snapshot whose store keys states differently is refused
    (the module's resume rule)."""
    version = require(document, "version")
    if version != FORMAT_VERSION:
        raise StoreFormatError(
            f"checker snapshot has version {version}, "
            f"expected {FORMAT_VERSION}"
        )
    visited = store_from_document(require(document, "store"), memory=memory)
    # the rebuilt store already knows its footprint and omission state;
    # the persisted counters restore the traffic history
    stats = TableStats.from_dict(require(document, "table_stats"))
    stats.stored_bytes = max(stats.stored_bytes, visited.stats.stored_bytes)
    stats.omission_possible = (stats.omission_possible
                               or visited.stats.omission_possible)
    stats.omission_probability = max(stats.omission_probability,
                                     visited.stats.omission_probability)
    visited.stats = stats
    if store is not None:
        _require_same_keys(visited, store, seed)
    raw_frontier = document.get("frontier")
    return CheckerSnapshot(
        visited=visited,
        operations_completed=int(document.get("operations_completed", 0)),
        runs=int(document.get("runs", 1)),
        seed=document.get("seed"),
        worker_id=document.get("worker_id"),
        frontier=(None if raw_frontier is None
                  else [int(index) for index in raw_frontier]),
    )


def save_checker_state(path: str, visited: AbstractVisitedTable,
                       operations_completed: int = 0, runs: int = 1,
                       seed: Optional[int] = None,
                       worker_id: Optional[str] = None,
                       frontier: Optional[List[int]] = None) -> None:
    """Atomically write the checker's knowledge to ``path``."""
    document = snapshot_document(visited,
                                 operations_completed=operations_completed,
                                 runs=runs, seed=seed, worker_id=worker_id,
                                 frontier=frontier)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(tmp_path, path)  # atomic on POSIX


def load_checker_state(path: str, memory=None, store: Optional[str] = None,
                       seed: int = 0) -> Optional[CheckerSnapshot]:
    """Load a previously saved snapshot; None when ``path`` is absent.

    ``store``/``seed`` apply the resume rule (see
    :func:`snapshot_from_document`)."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except ValueError as error:  # torn JSON, or not UTF-8 at all
            raise StoreFormatError(f"{path}: not JSON ({error})") from None
    try:
        return snapshot_from_document(document, memory=memory, store=store,
                                      seed=seed)
    except ValueError as error:
        raise StoreFormatError(f"{path}: {error}") from None
