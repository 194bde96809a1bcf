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
     "spec": {...} | null, "unit_results": [{...}, ...]}

``store`` is the store's own record: keyed tables (exact, hc) carry
their sorted ``(key, depth)`` records in the :mod:`repro.mc.records`
layout, hex-encoded; bitstate carries its two arrays.  ``table_stats``
restores the traffic counters so a resumed run's duplicate-hit ratio is
meaningful.  A campaign's snapshot -- its ``--state-file``, a served
job's spooled one -- also records its finished units: their run records
(:meth:`~repro.core.mcfs.MCFSResult.to_dict`) and the
:class:`~repro.dist.spec.CheckSpec` they belong to.  Documents of any
other version are refused with :class:`StoreFormatError`, as is any
with a missing or malformed field: a snapshot loads whole or not at
all.  Keys this module does not read (the ``seed``/``worker_id`` older
documents carry) are ignored.

**The resume rule.**  Every resumable run -- ``MCFS.run_dfs`` /
``run_random`` with a ``state_file``, a ``DistributedChecker`` with one,
and a paused campaign the server resumes -- starts from :func:`resume`:
the snapshot's table, persisted counters included, *is* the run's table
(nothing is merged), and a campaign runs only the spec's units that
have no record (:meth:`~repro.dist.spec.CheckSpec.units_without`).  A
snapshot the run would resume wrongly raises :class:`StoreFormatError`:
one whose store keys states differently (another kind, fingerprint
width or bits/k, or -- for the lossy kinds, whose keys and bit positions
are seed-mixed -- another seed), or whose unit records belong to
another spec (other per-unit budgets).  A library run (no ``spec``)
resumes the table alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from repro.mc.hashtable import AbstractVisitedTable, TableStats
from repro.mc.records import StoreFormatError, parse_store_spec, require
from repro.mc.statestore import make_store, store_from_document

if TYPE_CHECKING:
    from repro.core.mcfs import MCFSResult

FORMAT_VERSION = 4


@dataclass
class CheckerSnapshot:
    """Everything persisted between runs."""

    visited: AbstractVisitedTable
    operations_completed: int = 0
    runs: int = 1
    #: the finished campaign units' run records, in index order
    unit_results: List[MCFSResult] = field(default_factory=list)


def snapshot_document(visited: AbstractVisitedTable,
                      operations_completed: int = 0, runs: int = 1,
                      spec=None,
                      unit_results: Iterable[MCFSResult] = ()
                      ) -> Dict[str, Any]:
    """Build the (JSON-serialisable) snapshot document.

    Shared by :func:`save_checker_state`, a serialised campaign result
    (``DistResult.to_dict``) and the campaign server's spool.  Fleet
    workers ship no documents: a finished unit's states travel with its
    result as one packed ``RecordBatch``.
    """
    store_document = getattr(visited, "store_document", None)
    if store_document is None:
        raise ValueError(
            f"{type(visited).__name__} does not support persistence "
            f"(no store_document)"
        )
    return {
        "version": FORMAT_VERSION,
        "store": store_document(),
        "operations_completed": operations_completed,
        "runs": runs,
        "table_stats": visited.stats.to_dict(),
        "spec": spec.to_dict() if spec is not None else None,
        "unit_results": [unit.to_dict() for unit in unit_results],
    }


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


def unit_records(entries: Any, spec=None) -> List[MCFSResult]:
    """The run records a ``unit_results`` list holds, in index order.
    Anything but a list of objects with distinct integer indices --
    each one of ``spec``'s units, given a spec -- raises
    :class:`StoreFormatError`."""
    from repro.core.mcfs import MCFSResult

    units = len(spec.work_units()) if spec is not None else None
    if not isinstance(entries, list):
        raise StoreFormatError("unit_results: not a list")
    records: Dict[int, MCFSResult] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise StoreFormatError(f"unit_results: {entry!r} is not an "
                                   "object")
        try:
            record = MCFSResult.from_dict(entry)
        except (KeyError, TypeError, ValueError) as error:
            raise StoreFormatError(f"unit_results: malformed record "
                                   f"({type(error).__name__}: {error})"
                                   ) from None
        index = record.index
        problem = ("is not an integer" if type(index) is not int
                   else "repeats" if index in records
                   else f"is outside the spec's {units} unit(s)"
                   if units is not None and not 0 <= index < units
                   else None)
        if problem is not None:
            raise StoreFormatError(f"unit result index {index!r} {problem}")
        records[index] = record
    return [records[index] for index in sorted(records)]


def _require_same_spec(document: Dict[str, Any], records: List[MCFSResult],
                       spec) -> None:
    """The resume rule's refusal for unit records: they resume only the
    spec that wrote them (a library run, ``spec`` None, runs no unit)."""
    if not records or spec is None:
        return
    recorded = document.get("spec")
    try:
        if type(spec).from_dict(recorded) == spec:
            return
    except (AttributeError, TypeError, ValueError):  # no spec at all
        pass
    detail = ("differing in " + ", ".join(
        name for name, value in spec.to_dict().items()
        if recorded.get(name) != value)
        if isinstance(recorded, dict) else "the snapshot names none")
    raise StoreFormatError(
        f"spec: the snapshot's unit records belong to another campaign "
        f"spec ({detail}); resume with the spec that wrote them")


def snapshot_from_document(document: Dict[str, Any], memory=None,
                           store: Optional[str] = None, seed: int = 0,
                           spec=None) -> CheckerSnapshot:
    """Rebuild a :class:`CheckerSnapshot`; malformed input of any shape
    raises :class:`StoreFormatError`.

    ``store``/``seed`` are the resuming run's store spec and store seed,
    and ``spec`` its campaign spec (None for a library run): given
    ``store``, a snapshot the run would resume wrongly is refused (the
    module's resume rule)."""
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
    records = unit_records(document.get("unit_results", []), spec)
    if store is not None:
        _require_same_keys(visited, store, seed)
        _require_same_spec(document, records, spec)
    return CheckerSnapshot(
        visited=visited,
        operations_completed=int(document.get("operations_completed", 0)),
        runs=int(document.get("runs", 1)),
        unit_results=records,
    )


def write_document(path: str, document: Dict[str, Any]) -> None:
    """Write ``document`` to ``path`` as JSON, atomically (tmp file +
    rename): a crash during the write keeps the previous file whole."""
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(tmp_path, path)  # atomic on POSIX


def read_document(path: str) -> Any:
    """The JSON document at ``path``; torn JSON, or a file that is not
    UTF-8 at all, raises :class:`StoreFormatError` naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as error:
        raise StoreFormatError(f"{path}: not JSON ({error})") from None


def save_checker_state(path: str, visited: AbstractVisitedTable,
                       **fields: Any) -> None:
    """Atomically write the checker's knowledge to ``path``; ``fields``
    are :func:`snapshot_document`'s."""
    write_document(path, snapshot_document(visited, **fields))


def load_checker_state(path: str, memory=None, store: Optional[str] = None,
                       seed: int = 0, spec=None) -> Optional[CheckerSnapshot]:
    """Load a previously saved snapshot; None when ``path`` is absent.

    ``store``/``seed``/``spec`` apply the resume rule (see
    :func:`snapshot_from_document`)."""
    if not os.path.exists(path):
        return None
    document = read_document(path)
    try:
        return snapshot_from_document(document, memory=memory, store=store,
                                      seed=seed, spec=spec)
    except ValueError as error:
        raise StoreFormatError(f"{path}: {error}") from None


def resume(path: Optional[str], store: str, seed: int = 0, spec=None,
           memory=None, table: Optional[AbstractVisitedTable] = None
           ) -> CheckerSnapshot:
    """What a run starts from: the snapshot at ``path`` under the resume
    rule (``store``/``seed``/``spec`` are the run's), or -- no ``path``,
    or no file there yet -- ``table`` (a fresh ``store`` table when
    None) with nothing recorded and no run before it."""
    snapshot = (load_checker_state(path, memory=memory, store=store,
                                   seed=seed, spec=spec)
                if path is not None else None)
    if snapshot is not None:
        return snapshot
    if table is None:
        table = make_store(store, memory=memory, seed=seed)
    return CheckerSnapshot(table, runs=0)
