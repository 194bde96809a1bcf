"""Schedule recording: the raw material for counterexample trails.

Spin's counterexamples are *trails*: the exact sequence of choices the
checker made, replayable with ``spin -t``.  The explorer's analogue is a
schedule -- every operation it applied, every checkpoint it took, every
restore it performed, and every point at which it compared the file
systems -- recorded as it happens by a :class:`TrailRecorder`.

Replaying the schedule verbatim (:mod:`repro.trail.replay`) re-executes
the run's exact interaction with the targets, which is what makes even
*restore-dependent* bugs reproducible: a missing-cache-invalidation
ghost only appears after an ioctl rollback, so a linear re-run of the
operation log alone can never show it, but a schedule replay performs
the same rollback and hits the same ghost.

A schedule is a list of tuples (the first element is one of the module
constants below)::

    (OP, operation)      -- apply one Operation to every FUT
    (CHECK,)             -- hash + cross-compare the abstract states
    (FSCK,)              -- run the offline fsck oracle sweep
    (CHECKPOINT, id)     -- capture the concrete state under ``id``
    (RESTORE, id)        -- roll back to the state captured under ``id``,
                            spending it (see :func:`orphan_restores`)

The recorder does not keep that list while the run goes on: it stores
one signed 64-bit code per event and builds the tuples only when
:meth:`TrailRecorder.schedule` is asked for them (see its docstring).

Serialisation of events lives in :mod:`repro.core.report` next to the
operation codecs, so a schedule travels inside a serialised
:class:`~repro.core.report.DiscrepancyReport` (and therefore over the
dist wire) for free.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Tuple

#: event tags (the first element of every event tuple)
OP = "op"
CHECK = "check"
FSCK = "fsck"
CHECKPOINT = "checkpoint"
RESTORE = "restore"

Event = Tuple[Any, ...]

#: recording stops past this many events (8 bytes each in the recorder,
#: about 1.6 MB); a schedule that long is not a useful reproducer and the
#: memory is better spent on exploration
DEFAULT_MAX_EVENTS = 200_000

#: the recorder's codes of the two events without an argument
_CHECK_CODE = -1
_FSCK_CODE = -2


def count_operations(events) -> int:
    """Number of OP events in a schedule (its 'length' for humans)."""
    return sum(1 for event in events if event[0] == OP)


def orphan_restores(events: List[Event]) -> List[int]:
    """Positions of the RESTORE events that break the schedule rule.

    A restore spends its checkpoint, as ``ioctl_RESTORE`` discards its
    snapshot: a RESTORE is well formed only if its id was checkpointed
    earlier and has not been restored since.  Every other RESTORE -- of
    an id never taken, before its CHECKPOINT, or of one id a second
    time -- is an orphan.
    """
    armed = set()
    orphans: List[int] = []
    for position, event in enumerate(events):
        if event[0] == CHECKPOINT:
            armed.add(event[1])
        elif event[0] == RESTORE:
            if event[1] in armed:
                armed.remove(event[1])
            else:
                orphans.append(position)
    return orphans


def normalize(events: List[Event]) -> List[Event]:
    """Drop the orphan RESTORE events (:func:`orphan_restores`).

    Delta debugging removes events freely; a candidate that restores a
    checkpoint it never took, or one it already spent, is not a smaller
    run of the same system, it is a different (invalid) program.
    Normalising instead of rejecting lets the minimizer still try the
    rest of the candidate.
    """
    orphans = set(orphan_restores(events))
    if not orphans:
        return list(events)
    return [event for position, event in enumerate(events)
            if position not in orphans]


# ------------------------------------------------------- the tree view --
# A schedule is not a flat list: every ``CHECKPOINT id ... RESTORE id``
# span is an *episode* whose operations are rolled back when it closes.
# What is left once every completed episode is cancelled is the live
# path -- the operations actually in effect at the schedule's end.

def live_path(events: List[Event]) -> List[Event]:
    """The OP/CHECK/FSCK events still in effect at the schedule's end.

    A RESTORE puts the path back to what it was at its CHECKPOINT, also
    when episodes interleave (``C0 a C1 b R0 c R1 d`` leaves ``a d``);
    a RESTORE of an id never taken and a CHECKPOINT never restored
    change nothing.
    This is the sequence a harness with exact restore holds in its
    ``operation_log``, plus the state comparisons between them.
    """
    # the path is a cons list (parent, event) so a checkpoint is a
    # pointer copy and a restore is O(1)
    node = None
    saved = {}
    for event in events:
        tag = event[0]
        if tag == CHECKPOINT:
            saved[event[1]] = node
        elif tag == RESTORE:
            if event[1] in saved:
                node = saved[event[1]]
        else:
            node = (node, event)
    path: List[Event] = []
    while node is not None:
        node, event = node
        path.append(event)
    path.reverse()
    return path


def atoms(events: List[Event], positions: List[int]) -> List[List[int]]:
    """Top-level atoms of the sub-schedule ``positions`` selects.

    An atom is a list of positions into ``events``: either one event,
    or a whole episode -- a CHECKPOINT through the last RESTORE of its
    id, widened until every CHECKPOINT inside has all its RESTOREs
    inside too (interleaved episodes merge into one atom).  Atoms are
    therefore *balanced*: dropping any set of them never orphans a
    RESTORE.  A CHECKPOINT nothing restores is a single-event atom.
    """
    last_restore = {}
    for index, position in enumerate(positions):
        event = events[position]
        if event[0] == RESTORE:
            last_restore[event[1]] = index
    result: List[List[int]] = []
    index = 0
    while index < len(positions):
        end = cursor = index
        while cursor <= end:
            event = events[positions[cursor]]
            if event[0] == CHECKPOINT:
                end = max(end, last_restore.get(event[1], cursor))
            cursor += 1
        result.append(list(positions[index:end + 1]))
        index = end + 1
    return result


def split(events: List[Event], atom: List[int]) -> List[List[int]]:
    """One level down the tree: an episode's frame, then its children.

    The frame -- the opening CHECKPOINT with every RESTORE of its id --
    stays one (balanced) atom; what it enclosed is re-read as top-level
    atoms.  A bare frame or a single event has no children and comes
    back as itself.
    """
    head = events[atom[0]]
    if head[0] != CHECKPOINT:
        return [atom]
    frame = [position for position in atom
             if events[position][0] in (CHECKPOINT, RESTORE)
             and events[position][1] == head[1]]
    if len(frame) == len(atom):
        return [atom]
    framed = set(frame)
    inner = [position for position in atom if position not in framed]
    return [frame] + atoms(events, inner)


class TrailRecorder:
    """Append-only schedule log, written by the explorer as it runs.

    Recording is always on, so an event costs one word: a signed 64-bit
    code in an ``array('q')``.  An operation is its index (from 0) in the
    recorder's table of distinct operations; CHECK and FSCK are the fixed
    codes -1 and -2; a CHECKPOINT of id ``k`` is ``-3 - 2k`` and a RESTORE
    of id ``k`` is ``-4 - 2k`` (ids are non-negative and below 2**62).
    :meth:`schedule` decodes the codes back into the event tuples above.

    If a run outlives ``max_events`` the recorder stops (and says so
    through :attr:`truncated`) rather than growing without bound -- a
    truncated schedule cannot be replayed faithfully, so :meth:`schedule`
    then returns None and no trail is captured.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS):
        self.max_events = max_events
        self.truncated = False
        self._codes = array("q")
        #: distinct operations, in order of first use, and their codes
        self._operations: List[Any] = []
        self._operation_codes: Dict[Any, int] = {}
        self._next_checkpoint_id = 0

    def _append(self, code: int) -> None:
        if self.truncated:
            return
        if len(self._codes) >= self.max_events:
            self.truncated = True
            return
        self._codes.append(code)

    # -------------------------------------------------------------- events --
    def operation(self, operation) -> None:
        code = self._operation_codes.get(operation)
        if code is None:
            code = self._operation_codes[operation] = len(self._operations)
            self._operations.append(operation)
        self._append(code)

    def check(self) -> None:
        self._append(_CHECK_CODE)

    def fsck(self) -> None:
        self._append(_FSCK_CODE)

    def checkpoint(self) -> int:
        """Record a checkpoint; returns its id for later :meth:`restore`."""
        checkpoint_id = self._next_checkpoint_id
        self._next_checkpoint_id += 1
        self._append(-3 - 2 * checkpoint_id)
        return checkpoint_id

    def restore(self, checkpoint_id: int) -> None:
        self._append(-4 - 2 * checkpoint_id)

    # ------------------------------------------------------------- harvest --
    def schedule(self) -> Optional[List[Event]]:
        """The recorded schedule, or None when recording overflowed."""
        if self.truncated:
            return None
        operations = self._operations
        events: List[Event] = []
        for code in self._codes:
            if code >= 0:
                events.append((OP, operations[code]))
            elif code == _CHECK_CODE:
                events.append((CHECK,))
            elif code == _FSCK_CODE:
                events.append((FSCK,))
            else:
                folded = -3 - code  # 2k for CHECKPOINT k, 2k + 1 for RESTORE k
                events.append((RESTORE if folded & 1 else CHECKPOINT,
                               folded >> 1))
        return events
