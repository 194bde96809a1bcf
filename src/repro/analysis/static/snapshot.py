"""Snapshot-completeness pass: find restore-blind instance state.

The engine's verdicts assume restore really rewinds: after
``restore(snapshot)`` a component must behave as if the operations since
``snapshot`` never happened.  Any mutable instance attribute that is
written outside ``__init__`` but is invisible to the class's
snapshot/restore surface survives the rewind -- the checker then
explores from a state that never existed, and every verdict downstream
of it is suspect (the paper's §5 ghost-EEXIST bug is exactly this shape,
caught dynamically; this pass catches the shape statically).

A class participates in checkpoint/restore iff its effective method
table (MRO-resolved) has both a capture-side and a restore-side method
*and* the resolved restore method actually rebinds instance state
(``self.x = ...``).  The store requirement is the discriminator that
keeps delegating wrappers (a ``restore_snapshot`` that only forwards to
a wrapped device) and policy objects (checkpoint strategies call
``target.restore(...)``) out of scope: they hold no state of their own
to rewind.

For an in-scope class:

* the *surface* is the call closure of the capture+restore methods
  (``self_calls`` plus attr reads naming methods/properties);
* the *init closure* is the call closure of ``__init__``;
* every attribute stored by a method outside both closures must be
  read or written somewhere in the surface, else it is flagged
  ``restore-blind`` at the offending store site.

Findings are deduplicated by store site, so an attribute inherited by
five drivers from one base is reported once, at its definition.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.static.model import ProjectModel, reach

CHECKER = "analyze.snapshot"

#: capture-side method names across the codebase's snapshot surfaces
CAPTURE_NAMES = frozenset({
    "_capture_state", "snapshot", "vfs_checkpoint", "snapshot_chunks",
    "snapshot_image", "vm_snapshot", "checkpoint",
})

#: restore-side method names
RESTORE_NAMES = frozenset({
    "_restore_state", "restore", "vfs_restore", "restore_snapshot",
    "restore_image", "vm_restore",
})


def run_snapshot_pass(model: ProjectModel) -> List[Finding]:
    findings: List[Finding] = []
    reported: Set[Tuple[str, int, str]] = set()
    for qualname in sorted(model.classes):
        cls = model.classes[qualname]
        table = cls.mro_methods(model)
        capture = sorted(CAPTURE_NAMES & set(table))
        restore = sorted(RESTORE_NAMES & set(table))
        if not capture or not restore:
            continue
        if not any(table[name].bind_stores for name in restore):
            continue  # delegating wrapper / policy object: no own state
        surface = reach(table, capture + restore)
        init_closure = reach(table, ["__init__"])
        captured: Set[str] = set()
        for name in sorted(surface):
            info = table[name]
            captured |= info.attr_reads | set(info.stored_attrs)
        for name in sorted(table):
            if name in surface or name in init_closure:
                continue
            info = table[name]
            for attr in sorted(info.stored_attrs):
                if attr.startswith("__") or attr in captured:
                    continue
                line = info.stored_attrs[attr]
                site = (info.path, line, attr)
                if site in reported:
                    continue
                reported.add(site)
                findings.append(Finding(
                    checker=CHECKER, invariant="restore-blind",
                    message=(f"{info.owner.rpartition('.')[2]}.{attr} is "
                             f"written in {name}() but is unreachable from "
                             f"the snapshot/restore surface "
                             f"({'/'.join(capture + restore)}); it survives "
                             f"a state rewind"),
                    severity="error", location=f"{info.path}:{line}",
                    detail={"line": line,
                            "symbol": f"{info.owner.rpartition('.')[2]}.{attr}",
                            "method": name},
                ))
    findings.sort(key=lambda f: (f.location, f.detail.get("symbol", "")))
    return findings
