"""AST rules for the determinism linter.

The engine's whole value rests on reproducibility: the same seed must
produce the same exploration, the same state hashes, the same reports.
These rules flag the source-level hazards that silently break that:

* ``unseeded-random`` -- calls into the module-global ``random`` RNG
  (seeded from the OS) or ``random.Random()`` constructed without a
  seed.  Every RNG must be constructed with an explicit seed.
* ``wall-clock`` -- reads of real time (``time.time``, ``monotonic``,
  ``perf_counter``, ``datetime.now``, ...).  Simulated components must
  use :mod:`repro.clock`; wall-clock reads make traces unreplayable.
* ``builtin-hash`` -- the builtin ``hash()``, which is randomised per
  process by ``PYTHONHASHSEED`` for ``str``/``bytes``.  State hashing
  must go through :mod:`repro.util.hashing`.
* ``unordered-iteration`` -- iterating a ``set``/``frozenset`` (literal,
  constructor call, comprehension, or a local variable bound to one)
  without ``sorted(...)``.  Set order varies with hash randomisation,
  so anything derived from such a loop (reports, hashes, allocation
  order) varies run to run.
* ``raw-device-data`` -- direct access to a device's backing store
  (``._chunk_groups``, the live chunk table).  Outside
  :mod:`repro.storage` everything must go through ``read``/``write``/
  ``snapshot_*`` so the copy-on-write dirty tracking and I/O accounting
  stay truthful; a raw poke would silently corrupt both.  (Warn
  severity: enforced by ``repro analyze --strict``.)
* ``raw-visited-state`` -- direct access to a visited table's ``._seen``
  map.  Outside :mod:`repro.mc` callers must use
  ``export_seen``/``import_seen``/``visit``: not every store *has* a
  hash map (bitstate keeps a bit array, hash compaction keeps
  fingerprints -- see :mod:`repro.mc.statestore`), and a raw read
  bypasses the stats/memory accounting.  (Warn severity: enforced by
  ``repro lint --strict``.)
* ``raw-entry-cache`` -- direct access to the incremental abstraction
  cache's internals (``._merkle`` copy-on-write store, ``._enc_memo``
  per-record encodings).  Outside :mod:`repro.core.abstraction` callers
  must use ``refresh``/``digests``/``snapshot``/``restore``/
  ``invalidate``: a raw poke can desynchronise the sorted key array,
  the digest lanes, and the Merkle prefix checkpoints, silently
  corrupting every later state hash.  (Warn severity: enforced by
  ``repro lint --strict``.)
* ``unsorted-fs-listing`` -- bare ``os.listdir``/``os.scandir``/
  ``glob.glob``/``glob.iglob``/``Path.iterdir`` results used without
  ``sorted(...)``.  The OS returns directory entries in on-disk order,
  which varies across machines and runs; anything derived from the raw
  listing (reports, walk order, hashes) varies with it.
* ``set-pop`` -- ``set.pop()`` removes and returns an *arbitrary*
  element (whichever hash bucket comes first), so the popped value --
  and everything downstream of it -- varies with ``PYTHONHASHSEED``.

A finding on a given line is suppressed by an inline pragma **with a
justification** (see :mod:`repro.analysis.pragmas` for the stacked and
multi-line forms)::

    for block in blocks:  # det-lint: allow[unordered-iteration] result is a count, order-free

A pragma without a justification is itself reported (``bare-pragma``),
so the allowlist stays self-documenting.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.pragmas import apply_pragmas

CHECKER = "lint.determinism"

#: rule ids this module can emit (the pragma machinery treats pragmas
#: for other rules as belonging to the whole-program passes)
DETERMINISM_RULE_IDS = frozenset({
    "unseeded-random", "wall-clock", "builtin-hash", "unordered-iteration",
    "raw-device-data", "raw-visited-state", "raw-entry-cache",
    "unsorted-fs-listing", "set-pop", "syntax-error",
})

#: module-global functions of :mod:`random` that use the shared unseeded RNG
RANDOM_GLOBALS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "getrandbits", "randbytes", "betavariate",
    "expovariate", "triangular", "seed",
}

#: dotted call suffixes that read the wall clock
WALL_CLOCK_SUFFIXES = (
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "date.today",
)

#: bare names that, when imported from ``time``, read the wall clock
WALL_CLOCK_TIME_NAMES = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
}

#: private backing-store attributes of the storage layer; touching them
#: from anywhere else bypasses COW dirty tracking and I/O accounting
RAW_DEVICE_ATTRS = {"_chunk_groups"}

#: the visited-state tables' private hash maps; callers outside
#: ``repro.mc`` must use the export/import/visit boundary instead
RAW_VISITED_ATTRS = {"_seen"}

#: the incremental abstraction cache's internals (the copy-on-write
#: Merkle store and the per-record encoding memo); callers outside
#: ``repro.core.abstraction`` must use the cache's public surface
RAW_ENTRY_CACHE_ATTRS = {"_merkle", "_enc_memo"}

#: dotted call suffixes returning OS-ordered directory listings
FS_LISTING_SUFFIXES = ("os.listdir", "os.scandir", "glob.glob", "glob.iglob")

#: bare names that, when imported from ``os``/``glob``, list in OS order
FS_LISTING_NAMES = {"listdir": "os", "scandir": "os", "glob": "glob",
                    "iglob": "glob"}


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains as a dotted string (else None)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class DeterminismVisitor(ast.NodeVisitor):
    """One-file AST pass collecting determinism findings."""

    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self.random_aliases: Set[str] = set()       # modules acting as `random`
        self.random_func_aliases: Dict[str, str] = {}  # name -> random.<fn>
        self.time_func_aliases: Dict[str, str] = {}    # name -> time.<fn>
        self.listing_func_aliases: Dict[str, str] = {}  # name -> os/glob.<fn>
        self.set_locals: List[Set[str]] = [set()]      # per-scope set-typed names
        self._sorted_depth = 0  # > 0 while inside a sorted(...) call

    # ------------------------------------------------------------- helpers --
    def _finding(self, invariant: str, lineno: int, message: str,
                 severity: str = "error",
                 end_lineno: Optional[int] = None, **detail) -> None:
        if end_lineno is not None and end_lineno > lineno:
            detail["end_line"] = end_lineno
        self.findings.append(Finding(
            checker=CHECKER, invariant=invariant, message=message,
            severity=severity, location=f"{self.path}:{lineno}",
            detail=dict(detail, line=lineno),
        ))

    # ------------------------------------------------------------- imports --
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self.random_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name in RANDOM_GLOBALS:
                    self.random_func_aliases[alias.asname or alias.name] = alias.name
                if alias.name == "Random":
                    # constructor import: unseeded use caught at the call site
                    self.random_func_aliases[alias.asname or alias.name] = "Random"
        elif node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_TIME_NAMES:
                    self.time_func_aliases[alias.asname or alias.name] = alias.name
        elif node.module in ("os", "glob"):
            for alias in node.names:
                if FS_LISTING_NAMES.get(alias.name) == node.module:
                    self.listing_func_aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        self.generic_visit(node)

    # ---------------------------------------------------------------- calls --
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)

        # unseeded-random: random.<fn>() via the module-global RNG
        if isinstance(node.func, ast.Attribute) and dotted:
            head, _, tail = dotted.rpartition(".")
            if head in self.random_aliases and tail in RANDOM_GLOBALS:
                self._finding("unseeded-random", node.lineno,
                              f"{dotted}() uses the module-global RNG; "
                              f"construct random.Random(seed) instead",
                              end_lineno=node.end_lineno)
            if head in self.random_aliases and tail == "Random" and not node.args:
                self._finding("unseeded-random", node.lineno,
                              f"{dotted}() constructed without a seed",
                              end_lineno=node.end_lineno)
        if isinstance(node.func, ast.Name):
            mapped = self.random_func_aliases.get(node.func.id)
            if mapped == "Random" and not node.args:
                self._finding("unseeded-random", node.lineno,
                              f"{node.func.id}() constructed without a seed",
                              end_lineno=node.end_lineno)
            elif mapped is not None and mapped != "Random":
                self._finding("unseeded-random", node.lineno,
                              f"{node.func.id}() (= random.{mapped}) uses the "
                              f"module-global RNG",
                              end_lineno=node.end_lineno)

        # wall-clock
        if dotted and dotted.endswith(WALL_CLOCK_SUFFIXES):
            self._finding("wall-clock", node.lineno,
                          f"{dotted}() reads the wall clock; use the SimClock "
                          f"(repro.clock) instead",
                          end_lineno=node.end_lineno)
        if isinstance(node.func, ast.Name) and node.func.id in self.time_func_aliases:
            self._finding("wall-clock", node.lineno,
                          f"{node.func.id}() (= time."
                          f"{self.time_func_aliases[node.func.id]}) reads the "
                          f"wall clock; use the SimClock (repro.clock) instead",
                          end_lineno=node.end_lineno)

        # builtin-hash
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            self._finding("builtin-hash", node.lineno,
                          "builtin hash() is randomised by PYTHONHASHSEED; "
                          "use repro.util.hashing for stable hashes",
                          end_lineno=node.end_lineno)

        # unsorted-fs-listing: OS-ordered directory results used raw.
        # Anything lexically inside a sorted(...) call is determinized.
        if self._sorted_depth == 0:
            listing: Optional[str] = None
            if dotted and dotted.endswith(FS_LISTING_SUFFIXES):
                listing = dotted
            elif (isinstance(node.func, ast.Name)
                    and node.func.id in self.listing_func_aliases):
                listing = self.listing_func_aliases[node.func.id]
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "iterdir" and not node.args):
                listing = "iterdir"
            if listing is not None:
                self._finding("unsorted-fs-listing", node.lineno,
                              f"{listing}() yields entries in on-disk order; "
                              f"wrap in sorted(...) so walks and reports are "
                              f"stable across machines",
                              end_lineno=node.end_lineno)

        # set-pop: removes an arbitrary (hash-order) element
        if (isinstance(node.func, ast.Attribute) and node.func.attr == "pop"
                and not node.args and not node.keywords
                and self._is_known_set(node.func.value)):
            self._finding("set-pop", node.lineno,
                          "set.pop() returns an arbitrary element (hash "
                          "order); pop from a sorted list instead",
                          end_lineno=node.end_lineno)

        if isinstance(node.func, ast.Name) and node.func.id == "sorted":
            self._sorted_depth += 1
            self.generic_visit(node)
            self._sorted_depth -= 1
            return
        self.generic_visit(node)

    # ----------------------------------------------------------- attributes --
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in RAW_DEVICE_ATTRS:
            self._finding("raw-device-data", node.lineno,
                          f".{node.attr} reaches into a device's backing "
                          f"store; use read/write/snapshot_* so COW dirty "
                          f"tracking and stats stay correct",
                          severity="warn")
        if node.attr in RAW_VISITED_ATTRS:
            self._finding("raw-visited-state", node.lineno,
                          f".{node.attr} reaches into a visited table's "
                          f"hash map; use export_seen/import_seen/visit -- "
                          f"memory-bounded stores have no such map at all",
                          severity="warn")
        if node.attr in RAW_ENTRY_CACHE_ATTRS:
            self._finding("raw-entry-cache", node.lineno,
                          f".{node.attr} reaches into the abstraction "
                          f"cache's Merkle store; use refresh/digests/"
                          f"snapshot/restore/invalidate so the key array, "
                          f"digest lanes, and prefix checkpoints stay "
                          f"coherent",
                          severity="warn")
        self.generic_visit(node)

    # ---------------------------------------------------- scope/assignment --
    def _visit_scope(self, node: ast.AST) -> None:
        self.set_locals.append(set())
        self.generic_visit(node)
        self.set_locals.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_Lambda = _visit_scope

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = _is_set_expression(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self.set_locals[-1].add(target.id)
                else:
                    self.set_locals[-1].discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            if _is_set_expression(node.value):
                self.set_locals[-1].add(node.target.id)
            else:
                self.set_locals[-1].discard(node.target.id)
        self.generic_visit(node)

    # ------------------------------------------------------------ iteration --
    def _is_known_set(self, node: ast.AST) -> bool:
        if _is_set_expression(node):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self.set_locals)
        return False

    def _check_iteration(self, iter_node: ast.AST, lineno: int) -> None:
        if self._is_known_set(iter_node):
            what = (f"set {iter_node.id!r}" if isinstance(iter_node, ast.Name)
                    else "a set expression")
            self._finding("unordered-iteration", lineno,
                          f"iterating {what} in arbitrary order; wrap in "
                          f"sorted(...) so downstream output is stable")

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node.lineno)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iteration(generator.iter, node.lineno)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one module's source text; pragma-suppressed findings drop out."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Finding(
            checker=CHECKER, invariant="syntax-error",
            message=f"cannot parse: {error}", location=f"{path}:{error.lineno or 0}",
        )]
    visitor = DeterminismVisitor(path)
    visitor.visit(tree)
    return apply_pragmas(visitor.findings, source, path,
                         active_rules=DETERMINISM_RULE_IDS)
