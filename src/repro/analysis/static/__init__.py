"""Whole-program soundness passes (part of ``repro analyze``).

Where :mod:`repro.analysis.lint` checks one module at a time for
determinism hazards, these passes run over a project-wide model (class
attribute inventories, an import graph, a light call graph -- see
:mod:`repro.analysis.static.model`) and check the two soundness
invariants the checker's verdicts silently rest on:

* :mod:`.snapshot`  -- ``restore-blind``: mutable instance state must be
  reachable from its class's snapshot/restore surface;
* :mod:`.dirtymark` -- ``dirty-mark-missing``: VFS write-surface methods
  must mark a dirty path on some path through the method.

:mod:`repro.analysis.analyze` builds the model and runs both.
"""

from repro.analysis.static.dirtymark import run_dirtymark_pass
from repro.analysis.static.model import ProjectModel
from repro.analysis.static.snapshot import run_snapshot_pass

__all__ = ["ProjectModel", "run_dirtymark_pass", "run_snapshot_pass"]
