"""Versatile input exploration: weighted op profiles (Metis-style).

The paper bounds the operation/parameter pool to keep the state space
tractable (§4); its successor Metis (FAST '24) shows that the bugs that
matter often hide in *input* diversity rather than state diversity --
writes straddling block/extent/erase-block edges, deep paths, skewed
operation mixes.  This module supplies that diversity as a first-class,
deterministic subsystem:

* :class:`OpProfile` -- a weighted operation-class distribution parsed
  from a spec string (grammar below), parallel to the visited-store
  grammar of :func:`repro.mc.statestore.parse_store_spec`;
* :func:`boundary_parameters` -- boundary-value argument generation
  layered onto any :class:`~repro.core.ops.ParameterPool`: sizes and
  offsets straddling the 4 KiB block/extent edge and the 16 KiB jffs2
  erase-block edge, huge sparse offsets, deep path ladders, rename
  cycles, and odd open-flag combinations;
* :class:`WeightedChooser` -- a seeded, platform-stable weighted draw
  over a catalog (identical (seed, profile) -> identical sequence);
* :class:`CoverageSteering` -- optional feedback that *consumes* the
  :class:`~repro.core.coverage.CoverageTracker`'s outcome-pair counts
  and the explorer's visited-state newness to reweight generation toward
  operation classes whose outcome space is still under-visited.  Like
  :mod:`repro.mc.perf`, the measurements themselves are observational:
  steering reads the tracker, never writes it.

Spec-string grammar::

    profile  := base ( "+" flag )*
    base     := "uniform" | "write-heavy" | "meta-churn" | "boundary"
              | "custom:" op "=" weight { "," op "=" weight }
    flag     := "boundary" | "steer"

``uniform`` is the legacy instance-uniform draw (every concrete
operation equally likely -- byte-identical to the pre-profile engine).
Every other base weights operation *classes*: the chooser first picks a
class by weight, then one of its concrete operations uniformly.
``custom`` weights default to 1.0 for unlisted classes; a weight of 0
removes a class.  ``boundary`` alone is shorthand for
``uniform+boundary``; as a flag it augments the parameter pool with the
boundary-value families regardless of the base weights.  ``steer``
enables coverage steering.

Determinism contract: for a fixed (seed, profile spec, pool, catalog)
the generated operation sequence is identical across runs, platforms,
and fleet sizes.  The chooser draws only from ``random.Random`` (a
portable Mersenne Twister) and steering inputs are themselves
deterministic functions of the run history, so diversified fleet
members merge to byte-identical visited-state fingerprints at a fixed
(seed, profile) assignment.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.ops import Operation, ParameterPool
from repro.kernel.fdtable import (
    O_APPEND,
    O_CREAT,
    O_DIRECTORY,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
)

#: every operation class a profile may weight (the catalog's op names)
OP_CLASSES = (
    "create_file",
    "write_file",
    "truncate",
    "mkdir",
    "rmdir",
    "unlink",
    "rename",
    "symlink",
    "link",
    "setxattr",
    "open_flags",
)

#: named base profiles: class -> weight (unlisted classes weigh 1.0)
NAMED_WEIGHTS: Dict[str, Dict[str, float]] = {
    # instance-uniform: the legacy draw; weights are unused
    "uniform": {},
    # data-path pressure: block allocation, holes, extent growth
    "write-heavy": {
        "write_file": 8.0,
        "truncate": 4.0,
        "create_file": 3.0,
        "open_flags": 2.0,
    },
    # namespace churn: directory management, rename/link paths, dcache
    "meta-churn": {
        "mkdir": 5.0,
        "rmdir": 5.0,
        "rename": 5.0,
        "unlink": 4.0,
        "link": 3.0,
        "symlink": 3.0,
        "setxattr": 3.0,
        "create_file": 3.0,
        "write_file": 1.0,
        "truncate": 1.0,
    },
}

PROFILE_NAMES = ("uniform", "write-heavy", "meta-churn", "boundary")


@dataclass(frozen=True)
class OpProfile:
    """One parsed input profile: weights plus the boundary/steer flags."""

    #: the canonical spec string this profile parses back from
    spec: str
    #: the base name (``custom`` for explicit weight lists)
    name: str
    #: (class, weight) pairs for every class, in OP_CLASSES order --
    #: a tuple so profiles stay hashable/frozen like ParameterPool
    weights: Tuple[Tuple[str, float], ...]
    #: augment the parameter pool with boundary-value families
    boundary: bool = False
    #: enable coverage-steered reweighting
    steer: bool = False

    @property
    def is_instance_uniform(self) -> bool:
        """True for the legacy draw (plain ``rng.choice`` over instances).

        Only the unflagged/boundary ``uniform`` base qualifies: any class
        weighting or steering needs the weighted chooser.
        """
        return self.name == "uniform" and not self.steer

    def weight_of(self, op_class: str) -> float:
        for name, weight in self.weights:
            if name == op_class:
                return weight
        return 1.0


def _full_weights(overrides: Dict[str, float]) -> Tuple[Tuple[str, float], ...]:
    return tuple((name, float(overrides.get(name, 1.0))) for name in OP_CLASSES)


def parse_profile(spec: str) -> OpProfile:
    """Parse the profile grammar; raise ``ValueError`` with the options."""
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(
            f"empty input profile; expected one of {', '.join(PROFILE_NAMES)} "
            f"or custom:op=weight,..."
        )
    text = spec.strip()
    parts = text.split("+")
    base = parts[0].strip()
    boundary = False
    steer = False
    for flag in parts[1:]:
        flag = flag.strip()
        if flag == "boundary":
            boundary = True
        elif flag == "steer":
            steer = True
        else:
            raise ValueError(
                f"unknown profile flag {flag!r} in {spec!r}; "
                f"expected boundary | steer"
            )
    if base.startswith("custom:"):
        overrides: Dict[str, float] = {}
        body = base[len("custom:"):]
        if not body:
            raise ValueError(f"empty custom profile in {spec!r}; "
                             f"expected custom:op=weight,...")
        for assignment in body.split(","):
            op_name, separator, raw_weight = assignment.partition("=")
            op_name = op_name.strip()
            if not separator or op_name not in OP_CLASSES:
                raise ValueError(
                    f"bad profile assignment {assignment!r} in {spec!r}; "
                    f"expected op=weight with op one of "
                    f"{', '.join(OP_CLASSES)}"
                )
            try:
                weight = float(raw_weight)
            except ValueError:
                raise ValueError(
                    f"profile weight {raw_weight!r} in {spec!r} is not a "
                    f"number"
                ) from None
            if weight < 0:
                raise ValueError(
                    f"profile weight for {op_name!r} in {spec!r} is negative"
                )
            overrides[op_name] = weight
        weights = _full_weights(overrides)
        if not any(weight > 0 for _, weight in weights):
            raise ValueError(f"custom profile {spec!r} removes every class")
        return OpProfile(spec=text, name="custom",
                         weights=weights,
                         boundary=boundary, steer=steer)
    if base == "boundary":
        # shorthand: uniform weights with boundary-value arguments
        return OpProfile(spec=text, name="uniform",
                         weights=_full_weights({}),
                         boundary=True, steer=steer)
    if base not in NAMED_WEIGHTS:
        raise ValueError(
            f"unknown input profile {base!r}; expected one of "
            f"{', '.join(PROFILE_NAMES)} or custom:op=weight,..."
        )
    return OpProfile(spec=text, name=base,
                     weights=_full_weights(NAMED_WEIGHTS[base]),
                     boundary=boundary, steer=steer)


# -------------------------------------------------------- boundary values --
#: the 4 KiB edge every block fs and the VeriFS2 extent (chunk) share
BLOCK_EDGE = 4096
#: the jffs2/MTD erase-block edge (:class:`repro.storage.mtd.MTDDevice`)
ERASE_BLOCK_EDGE = 16 * 1024
#: a huge sparse offset: far past every pool file, still cheap for
#: chunked/sparse storage, and an honest error path for tiny devices
SPARSE_OFFSET = 1 << 20

BOUNDARY_WRITE_SIZES = (1, BLOCK_EDGE - 1, BLOCK_EDGE, BLOCK_EDGE + 1,
                        ERASE_BLOCK_EDGE + 1)
BOUNDARY_WRITE_OFFSETS = (BLOCK_EDGE - 1, BLOCK_EDGE, BLOCK_EDGE + 1,
                          SPARSE_OFFSET)
BOUNDARY_TRUNCATE_SIZES = (BLOCK_EDGE - 1, BLOCK_EDGE, BLOCK_EDGE + 1)

#: a path ladder four directories deep, plus a file at the bottom
DEEP_DIR_LADDER = ("/deep", "/deep/a", "/deep/a/b", "/deep/a/b/c")
DEEP_FILE = "/deep/a/b/c/f9"

#: odd open-flag combinations (each becomes an ``open_flags`` meta-op)
ODD_OPEN_FLAG_SETS = (
    O_CREAT | O_EXCL | O_WRONLY,   # EEXIST on the second visit
    O_CREAT | O_TRUNC | O_RDWR,    # implicit truncate-to-zero on open
    O_WRONLY | O_APPEND,           # append mode (ENOENT until created)
    O_RDONLY | O_DIRECTORY,        # ENOTDIR on files, ok on directories
)


def _merged(base: Tuple, extra: Sequence) -> Tuple:
    """Append the extras that are not already present, preserving order."""
    merged = list(base)
    for value in extra:
        if value not in merged:
            merged.append(value)
    return tuple(merged)


def boundary_parameters(pool: ParameterPool) -> ParameterPool:
    """Layer the boundary-value families onto an existing pool.

    Every base value is kept (the boundary profile is a superset, never a
    replacement), so a boundary run still reaches everything the plain
    pool reaches.  Idempotent: augmenting twice returns the same pool.
    """
    file_paths = _merged(pool.file_paths, (DEEP_FILE,))
    dir_paths = _merged(pool.dir_paths, DEEP_DIR_LADDER)
    rename_cycle: Tuple[Tuple[str, str], ...] = ()
    if len(file_paths) >= 3:
        # close a 3-cycle over the first three files: the catalog's
        # pairwise renames cover the first two, the cycle adds the
        # rotations through the third (rename chains + cycles)
        first, second, third = file_paths[:3]
        rename_cycle = ((first, third), (second, third),
                        (third, first), (third, second))
    return ParameterPool(
        file_paths=file_paths,
        dir_paths=dir_paths,
        write_offsets=_merged(pool.write_offsets, BOUNDARY_WRITE_OFFSETS),
        write_sizes=_merged(pool.write_sizes, BOUNDARY_WRITE_SIZES),
        truncate_sizes=_merged(pool.truncate_sizes, BOUNDARY_TRUNCATE_SIZES),
        fill_bytes=pool.fill_bytes,
        symlink_targets=pool.symlink_targets,
        xattr_pairs=pool.xattr_pairs,
        rename_extra=_merged(pool.rename_extra, rename_cycle),
        open_flag_sets=_merged(pool.open_flag_sets, ODD_OPEN_FLAG_SETS),
    )


# ----------------------------------------------------------------- chooser --
class WeightedChooser:
    """Deterministic weighted draw over a catalog's operation list.

    Groups the concrete operations by class once; each draw picks a
    class by (possibly steered) weight, then a concrete operation within
    the class uniformly.  Both draws come from the caller's seeded
    ``random.Random``, so a fixed (seed, profile) yields an identical
    sequence on every platform and fleet member.
    """

    def __init__(self, profile: OpProfile, operations: Sequence[Operation],
                 steering: Optional["CoverageSteering"] = None):
        self.profile = profile
        self.steering = steering if profile.steer else None
        self._groups: List[Tuple[str, List[Operation]]] = []
        by_name: Dict[str, List[Operation]] = {}
        for operation in operations:
            by_name.setdefault(operation.name, []).append(operation)
        for op_class in OP_CLASSES:
            group = by_name.get(op_class)
            if group and profile.weight_of(op_class) > 0:
                self._groups.append((op_class, group))
        if not self._groups:
            raise ValueError(
                f"profile {profile.spec!r} leaves no executable operations "
                f"in this catalog"
            )
        self._base_weights = [profile.weight_of(name)
                              for name, _group in self._groups]
        self._cumulative = self._accumulate(self._base_weights)

    @staticmethod
    def _accumulate(weights: Sequence[float]) -> List[float]:
        cumulative: List[float] = []
        total = 0.0
        for weight in weights:
            total += weight
            cumulative.append(total)
        return cumulative

    def _current_cumulative(self) -> List[float]:
        if self.steering is None:
            return self._cumulative
        multipliers = self.steering.multipliers(
            [name for name, _group in self._groups]
        )
        return self._accumulate([
            weight * multiplier
            for weight, multiplier in zip(self._base_weights, multipliers)
        ])

    def choose(self, rng) -> Operation:
        cumulative = self._current_cumulative()
        total = cumulative[-1]
        index = bisect_right(cumulative, rng.random() * total)
        if index >= len(self._groups):  # guard the r == total edge
            index = len(self._groups) - 1
        _name, group = self._groups[index]
        if self.steering is not None:
            fresh = self.steering.unrun(group)
            if fresh:
                group = fresh
        return group[rng.randrange(len(group))]


class CoverageSteering:
    """Reweight generation toward under-visited outcome space.

    Inputs (both deterministic functions of the run history):

    * per-class execution and distinct outcome-pair counts, read from a
      :class:`~repro.core.coverage.CoverageTracker`;
    * the explorer's visited-state newness stream (how many recent state
      checks landed on already-visited abstract states).

    A class's multiplier is ``((1 + pairs) / (1 + executions)) ** p``:
    classes that have run many times while uncovering few distinct
    (operation, outcome) pairs decay, classes that keep producing new
    outcome pairs (or have barely run) hold their weight.  The exponent
    ``p`` rises from 1 toward 2 as the walk revisits more abstract
    states, so steering sharpens exactly when exploration stalls.

    Multipliers are recomputed every ``period`` recorded operations (the
    cache makes a draw O(classes), not O(outcome pairs)); the tracker is
    only ever read, never written.
    """

    def __init__(self, tracker, period: int = 32):
        self.tracker = tracker
        self.period = max(1, period)
        self._recorded = 0
        self._states_checked = 0
        self._states_revisited = 0
        self._cache: Optional[Dict[str, float]] = None

    # -------------------------------------------------------------- inputs --
    def note_operation(self) -> None:
        """One operation recorded by the tracker (invalidates the cache
        on period boundaries)."""
        self._recorded += 1
        if self._recorded % self.period == 0:
            self._cache = None

    def note_state_visit(self, is_new: bool) -> None:
        """One visited-table probe from the explorer."""
        self._states_checked += 1
        if not is_new:
            self._states_revisited += 1

    # ------------------------------------------------------------- outputs --
    @property
    def pressure(self) -> float:
        """Steering exponent in [1, 2]: revisit-heavy walks steer harder."""
        if self._states_checked == 0:
            return 1.0
        return 1.0 + self._states_revisited / self._states_checked

    def multipliers(self, op_classes: Sequence[str]) -> List[float]:
        if self._cache is None:
            executions, pairs = self.tracker.per_class_counts()
            exponent = self.pressure
            self._cache = {
                op_class: ((1.0 + pairs.get(op_class, 0))
                           / (1.0 + executions.get(op_class, 0))) ** exponent
                for op_class in OP_CLASSES
            }
        cache = self._cache
        return [cache.get(op_class, 1.0) for op_class in op_classes]

    def unrun(self, group: Sequence[Operation]) -> List[Operation]:
        """The subset of ``group`` the tracker has never recorded.

        The chooser prefers these: a concrete operation that has never
        executed cannot have contributed an outcome pair yet, so drawing
        it is the cheapest move toward new (operation, outcome) pairs.
        Class multipliers alone cannot see this -- they treat a class
        whose thirty argument variants all ran once the same as one
        where a single variant ran thirty times.
        """
        has_run = getattr(self.tracker, "has_run", None)
        if has_run is None:
            return []
        return [operation for operation in group if not has_run(operation)]
